package trace

import (
	"runtime"
	"sync/atomic"
)

// Ring is a fixed-capacity, multi-writer ring of records, each a fixed
// number of int64 words, that a reader can snapshot at any time without
// ever seeing a torn record. It backs both observability record streams:
// the tracer's per-rank event tracks and the obs profiler's per-rank
// iteration records.
//
// The protocol is a per-slot seqlock. A writer claims a sequence number
// with one atomic add on the claim counter, takes its slot by swapping
// the slot's stamp from a published value to busy (invalidate), stores
// the record's words one atomic store each, and republishes the stamp as
// its claim number + 1. A reader accepts a slot only when the stamp is
// published and unchanged across its word loads. Taking the slot by
// compare-and-swap instead of a plain store keeps two writers whose
// claims landed on the same slot one lap apart from interleaving their
// words; the older of the two drops its record, which the newer one
// overwrites anyway. Appends allocate nothing (TestRingAppendZeroAlloc).
type Ring struct {
	pos   atomic.Uint64 // claim counter: records ever appended
	mask  uint64
	width int            // words per record
	cells []atomic.Int64 // per slot: stamp, then width record words
}

// stampBusy marks a slot whose words a writer is storing.
const stampBusy = -1

// NewRing returns a ring of width-word records holding the newest
// capacity records (rounded up to a power of two, at least 1).
func NewRing(capacity, width int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), width: width, cells: make([]atomic.Int64, n*(width+1))}
}

// Cap returns the number of records the ring retains.
func (r *Ring) Cap() int { return int(r.mask) + 1 }

func (r *Ring) slot(seq uint64) []atomic.Int64 {
	i := int(seq&r.mask) * (r.width + 1)
	return r.cells[i : i+r.width+1]
}

// Append stores rec (at least the ring's record width in words) as the
// newest record.
func (r *Ring) Append(rec []int64) {
	seq := r.pos.Add(1) - 1
	tag := int64(seq + 1)
	cell := r.slot(seq)
	for {
		s := cell[0].Load()
		if s >= tag {
			return // a writer one lap ahead already holds the slot
		}
		if s != stampBusy && cell[0].CompareAndSwap(s, stampBusy) {
			break
		}
		runtime.Gosched() // another writer is mid-store in this slot
	}
	for i := range cell[1:] {
		cell[1+i].Store(rec[i])
	}
	cell[0].Store(tag)
}

// Snapshot calls fn with every consistently published record, oldest
// claim first when no writer is active. The slice fn receives is reused
// between calls. Safe against concurrent appends: a record rewritten
// during the scan is retried a few times and skipped, never torn.
func (r *Ring) Snapshot(fn func(rec []int64)) {
	buf := make([]int64, r.width)
	from := r.pos.Load()
	for k := uint64(0); k <= r.mask; k++ {
		cell := r.slot(from + k)
		for attempt := 0; attempt < 4; attempt++ {
			s := cell[0].Load()
			if s <= 0 {
				break // empty, or a writer is mid-store
			}
			for i := range buf {
				buf[i] = cell[1+i].Load()
			}
			if cell[0].Load() == s {
				fn(buf)
				break
			}
		}
	}
}

// Dropped returns how many records wraparound has overwritten: appends
// beyond the ring's capacity, read off the claim counter.
func (r *Ring) Dropped() uint64 {
	pos, n := r.pos.Load(), r.mask+1
	if pos <= n {
		return 0
	}
	return pos - n
}
