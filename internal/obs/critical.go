package obs

import (
	"math"
	"sort"
)

// This file is the cold-path analysis half of the profiler: clock-offset
// estimation, the per-iteration critical path, and the blame ledger.
//
// Critical-path algorithm (DESIGN Sec. 14):
//
//  1. Align clocks. offset[r] = median over the common iteration window
//     of (ExchEndNs[r][i] − ExchEndNs[0][i]). The exchange-completion
//     instant is barrier-anchored — on the BSP path every rank leaves
//     the allgather at nearly the same wall moment, so the per-iteration
//     difference between two ranks' *local* readings of that shared
//     moment is their clock skew plus noise; the median across
//     iterations is robust to the noise.
//
//  2. Pick the pacesetter. The critical rank of iteration i is the rank
//     with the latest aligned *arrival* at the exchange (exchange end
//     minus its own exchange duration): on a barrier everyone *leaves*
//     together, so the latest end says nothing — the last arriver is the
//     rank the barrier was provably waiting on.
//
//  3. Decompose. Comm-proper is the *minimum* exchange duration across
//     ranks — the rank that waited for nobody paid closest to the pure
//     transfer cost. Everything the critical rank's exchange spent above
//     that is comm-wait. The critical rank's other stage terms (compute,
//     compress = Tm+Tf+Ts+Tp, decompress, update, sync) pass through
//     unchanged: together they explain the iteration's wall time.
//
// Blame attribution rules:
//
//   - Fault path (TCP/netsim): the cluster layer watched arrivals inside
//     the exchange and reported the slowest fresh peer and the marginal
//     wait it caused (ExchangeResult.SlowestPeer/WaitNs → the record's
//     BlamePeer/BlameWaitNs). That is precise per-rank evidence — a
//     chaos straggler delays message *delivery*, so its own record looks
//     healthy while every peer's record names it. Blame the named peer.
//   - Barrier path: no per-arrival evidence exists, but the pacesetter
//     does — blame each rank's excess exchange time (its exchange minus
//     comm-proper) on the critical rank, which is the rank everyone was
//     provably waiting on. The critical rank itself blames nobody.

// IterProfile is the per-iteration critical-path view.
type IterProfile struct {
	Iter  int64 `json:"iter"`
	Ranks int   `json:"ranks"` // ranks that reported this iteration

	WallNs       int64 `json:"wall_ns"` // aligned max(End) − min(Start)
	CriticalRank int   `json:"critical_rank"`

	// The critical rank's decomposition (comm split into proper + wait).
	ComputeNs    int64 `json:"compute_ns"`
	CompressNs   int64 `json:"compress_ns"`
	CommProperNs int64 `json:"comm_proper_ns"`
	CommWaitNs   int64 `json:"comm_wait_ns"`
	DecompressNs int64 `json:"decompress_ns"`
	UpdateNs     int64 `json:"update_ns"`
	SyncNs       int64 `json:"sync_ns"`

	// Per-reporting-rank blame: BlockedNs[k] is rank Ranks[k]'s blocked
	// time, Blamed[k] the rank it attributes it to (-1 = none). Indexed
	// by position in RankIDs.
	RankIDs   []int   `json:"rank_ids"`
	BlockedNs []int64 `json:"blocked_ns"`
	Blamed    []int   `json:"blamed"`

	// Incomplete marks iterations some rank never reported (ring
	// wraparound, crash, or a not-yet-joined elastic slot) — cross-rank
	// readings over them are partial.
	Incomplete bool `json:"incomplete,omitempty"`
}

// Offsets estimates each rank's clock offset relative to rank 0 (ns; the
// value to *subtract* from rank r's timestamps to land on rank 0's
// axis). Ranks with no iterations in common with rank 0 get offset 0.
func (p *Profiler) Offsets() []int64 {
	if p == nil {
		return nil
	}
	perRank := make([]map[int64]int64, len(p.rings)) // iter → ExchEndNs
	for r := range p.rings {
		recs := p.Records(r)
		m := make(map[int64]int64, len(recs))
		for i := range recs {
			if recs[i].ExchEndNs > 0 {
				m[recs[i].Iter] = recs[i].ExchEndNs
			}
		}
		perRank[r] = m
	}
	return offsetsFrom(perRank)
}

func offsetsFrom(perRank []map[int64]int64) []int64 {
	out := make([]int64, len(perRank))
	if len(perRank) == 0 {
		return out
	}
	base := perRank[0]
	diffs := make([]int64, 0, len(base))
	for r := 1; r < len(perRank); r++ {
		diffs = diffs[:0]
		for iter, t0 := range base {
			if tr, ok := perRank[r][iter]; ok {
				diffs = append(diffs, tr-t0)
			}
		}
		if len(diffs) == 0 {
			continue
		}
		sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
		out[r] = diffs[len(diffs)/2]
	}
	return out
}

// profileIter builds one iteration's critical-path profile from the
// reporting ranks' records (parallel slices) and the offset estimate.
// Returns ok=false when no rank reported.
func profileIter(iter int64, ranks []int, recs []IterRecord, offsets []int64, total int) (IterProfile, bool) {
	if len(ranks) == 0 {
		return IterProfile{}, false
	}
	prof := IterProfile{
		Iter:         iter,
		Ranks:        len(ranks),
		CriticalRank: ranks[0],
		Incomplete:   len(ranks) < total,
		RankIDs:      append([]int(nil), ranks...),
		BlockedNs:    make([]int64, len(ranks)),
		Blamed:       make([]int, len(ranks)),
	}
	off := func(rank int) int64 {
		if rank < len(offsets) {
			return offsets[rank]
		}
		return 0
	}

	var minStart, maxEnd, maxArrive int64
	commProper := int64(math.MaxInt64)
	critIdx := 0
	for k, r := range ranks {
		rec := &recs[k]
		start := rec.StartNs - off(r)
		end := rec.EndNs - off(r)
		arrive := rec.ExchEndNs - off(r) - rec.ExchangeNs // exchange entry
		if k == 0 || start < minStart {
			minStart = start
		}
		if k == 0 || end > maxEnd {
			maxEnd = end
		}
		if k == 0 || arrive > maxArrive {
			maxArrive = arrive
			critIdx = k
		}
		if rec.ExchangeNs < commProper {
			commProper = rec.ExchangeNs
		}
	}
	crit := &recs[critIdx]
	prof.CriticalRank = ranks[critIdx]
	prof.WallNs = maxEnd - minStart
	prof.ComputeNs = crit.ComputeNs
	prof.CompressNs = crit.CompressNs
	prof.CommProperNs = commProper
	prof.CommWaitNs = crit.ExchangeNs - commProper
	if prof.CommWaitNs < 0 {
		prof.CommWaitNs = 0
	}
	prof.DecompressNs = crit.DecompressNs
	prof.UpdateNs = crit.UpdateNs
	prof.SyncNs = crit.SyncNs

	for k, r := range ranks {
		rec := &recs[k]
		prof.Blamed[k] = -1
		switch {
		case rec.BlamePeer >= 0 && rec.BlameWaitNs > 0:
			// Fault path: the cluster layer named the peer this rank
			// actually waited for, with the marginal wait measured.
			prof.BlockedNs[k] = rec.BlameWaitNs
			prof.Blamed[k] = int(rec.BlamePeer)
		case r != prof.CriticalRank:
			// Barrier path: excess exchange time over comm-proper is the
			// barrier wait, and the pacesetter is who everyone waited on.
			if blocked := rec.ExchangeNs - commProper; blocked > 0 {
				prof.BlockedNs[k] = blocked
				prof.Blamed[k] = prof.CriticalRank
			}
		}
	}
	return prof, true
}

// BlameEntry is one rank's standing in the ledger.
type BlameEntry struct {
	Rank int `json:"rank"`
	// BlamedNs: total blocked time across the fleet attributed to this
	// rank. BlamedIters: iterations in which at least one peer blamed it.
	BlamedNs    int64 `json:"blamed_ns"`
	BlamedIters int64 `json:"blamed_iters"`
	// BlockedNs: total time this rank spent blocked on others.
	BlockedNs int64 `json:"blocked_ns"`
}

// ledger is the cursor-guarded rolling aggregation. Guarded by
// Profiler.mu; the sweep folds each iteration exactly once, so the
// telemetry histograms never double-count however often an HTTP
// handler, the -top view or the end-of-run summary asks.
type ledger struct {
	swept      int64 // iterations below this are folded
	entries    []BlameEntry
	totalBlock int64
	iters      int64
	incomplete int64
	stage      [7]int64      // critical-path stage totals, Summary order
	recent     []IterProfile // bounded tail for export/top
}

const recentProfiles = 64

// sweep folds all newly complete iterations into the ledger. Callers
// hold p.mu. When final is true the sweep runs to the last iteration any
// rank reported; otherwise it stops at the common frontier (the largest
// iteration *every* active rank has committed), so a rank mid-iteration
// is never blamed on partial evidence.
func (p *Profiler) sweep(final bool) {
	type rankRecs struct {
		rank int
		recs []IterRecord
		byIt map[int64]int
		max  int64
	}
	var active []rankRecs
	exch := make([]map[int64]int64, len(p.rings))
	for r := range p.rings {
		recs := p.Records(r)
		em := make(map[int64]int64, len(recs))
		for i := range recs {
			if recs[i].ExchEndNs > 0 {
				em[recs[i].Iter] = recs[i].ExchEndNs
			}
		}
		exch[r] = em
		if len(recs) == 0 {
			continue
		}
		m := make(map[int64]int, len(recs))
		maxIter := int64(-1)
		for i := range recs {
			m[recs[i].Iter] = i
			if recs[i].Iter > maxIter {
				maxIter = recs[i].Iter
			}
		}
		active = append(active, rankRecs{rank: r, recs: recs, byIt: m, max: maxIter})
	}
	if len(active) == 0 {
		return
	}
	offsets := offsetsFrom(exch)

	// The sweep limit: common frontier (exclusive) normally, everything
	// reported when final.
	limit := int64(math.MaxInt64)
	for _, a := range active {
		if !final && a.max+1 < limit {
			limit = a.max + 1
		}
	}
	if final {
		limit = int64(-1)
		for _, a := range active {
			if a.max+1 > limit {
				limit = a.max + 1
			}
		}
	}

	if len(p.ledger.entries) == 0 {
		p.ledger.entries = make([]BlameEntry, len(p.rings))
		for r := range p.ledger.entries {
			p.ledger.entries[r].Rank = r
		}
	}

	var ranks []int
	var recs []IterRecord
	for iter := p.ledger.swept; iter < limit; iter++ {
		ranks = ranks[:0]
		recs = recs[:0]
		for _, a := range active {
			if idx, ok := a.byIt[iter]; ok {
				ranks = append(ranks, a.rank)
				recs = append(recs, a.recs[idx])
			}
		}
		prof, ok := profileIter(iter, ranks, recs, offsets, len(p.rings))
		if !ok {
			// Nobody retains this iteration anymore (wraparound): count it
			// and move on — the cursor must advance or the sweep stalls.
			p.ledger.incomplete++
			continue
		}
		p.fold(&prof)
	}
	// Never move the cursor back: a rank whose first record lands after
	// an earlier sweep lowers the common frontier below iterations that
	// sweep already folded, and re-sweeping them would count them twice.
	p.ledger.swept = max(p.ledger.swept, limit)
}

// fold accumulates one iteration profile into the ledger and feeds the
// per-rank blame histograms.
func (p *Profiler) fold(prof *IterProfile) {
	l := &p.ledger
	l.iters++
	if prof.Incomplete {
		l.incomplete++
	}
	blamedThisIter := make(map[int]bool, 2)
	for k := range prof.RankIDs {
		blocked := prof.BlockedNs[k]
		target := prof.Blamed[k]
		if blocked <= 0 || target < 0 || target >= len(l.entries) {
			continue
		}
		l.entries[prof.RankIDs[k]].BlockedNs += blocked
		l.entries[target].BlamedNs += blocked
		l.totalBlock += blocked
		if !blamedThisIter[target] {
			blamedThisIter[target] = true
			l.entries[target].BlamedIters++
		}
		if p.blameHist != nil && p.blameHist[target] != nil {
			p.blameHist[target].Observe(float64(blocked) / 1e9)
		}
	}
	l.stage[0] += prof.ComputeNs
	l.stage[1] += prof.CompressNs
	l.stage[2] += prof.CommProperNs
	l.stage[3] += prof.CommWaitNs
	l.stage[4] += prof.DecompressNs
	l.stage[5] += prof.UpdateNs
	l.stage[6] += prof.SyncNs
	l.recent = append(l.recent, *prof)
	if len(l.recent) > recentProfiles {
		l.recent = l.recent[len(l.recent)-recentProfiles:]
	}
}

// Summary is the rolled-up cross-rank view: the blame ledger plus
// cumulative critical-path stage totals over the swept window.
type Summary struct {
	Ranks      int   `json:"ranks"`
	Iterations int64 `json:"iterations"`
	Incomplete int64 `json:"incomplete"`

	TotalBlockedNs int64        `json:"total_blocked_ns"`
	Blame          []BlameEntry `json:"blame"`

	// Cumulative critical-path stage totals (ns) across swept iterations.
	ComputeNs    int64 `json:"compute_ns"`
	CompressNs   int64 `json:"compress_ns"`
	CommProperNs int64 `json:"comm_proper_ns"`
	CommWaitNs   int64 `json:"comm_wait_ns"`
	DecompressNs int64 `json:"decompress_ns"`
	UpdateNs     int64 `json:"update_ns"`
	SyncNs       int64 `json:"sync_ns"`

	AnomalyBreaches uint64 `json:"anomaly_breaches"`
}

// Summary sweeps newly complete iterations into the ledger and returns
// the rolled-up view. final=true additionally folds the ragged tail
// (iterations not every rank reported) — the end-of-run form.
func (p *Profiler) Summary(final bool) Summary {
	if p == nil {
		return Summary{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweep(final)
	s := Summary{
		Ranks:           len(p.rings),
		Iterations:      p.ledger.iters,
		Incomplete:      p.ledger.incomplete,
		TotalBlockedNs:  p.ledger.totalBlock,
		Blame:           append([]BlameEntry(nil), p.ledger.entries...),
		AnomalyBreaches: p.breaches.Load(),
	}
	s.ComputeNs = p.ledger.stage[0]
	s.CompressNs = p.ledger.stage[1]
	s.CommProperNs = p.ledger.stage[2]
	s.CommWaitNs = p.ledger.stage[3]
	s.DecompressNs = p.ledger.stage[4]
	s.UpdateNs = p.ledger.stage[5]
	s.SyncNs = p.ledger.stage[6]
	return s
}

// Profiles sweeps and returns the most recent per-iteration profiles
// (up to the retained tail of 64).
func (p *Profiler) Profiles(final bool) []IterProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweep(final)
	return append([]IterProfile(nil), p.ledger.recent...)
}
