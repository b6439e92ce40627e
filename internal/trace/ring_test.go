package trace

import (
	"sync"
	"testing"
)

// TestRingWraparoundOrder overfills a tiny ring: exactly the newest
// capacity-many records survive, snapshotted oldest first.
func TestRingWraparoundOrder(t *testing.T) {
	r := NewRing(3, 2) // rounds up to 4
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	const total = 11
	for i := int64(0); i < total; i++ {
		r.Append([]int64{i, -i})
	}
	var got []int64
	r.Snapshot(func(rec []int64) {
		if rec[1] != -rec[0] {
			t.Errorf("record %v mixes two appends", rec)
		}
		got = append(got, rec[0])
	})
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d records, want 4", len(got))
	}
	for i, v := range got {
		if want := int64(total - 4 + i); v != want {
			t.Errorf("record %d = %d, want %d (oldest first)", i, v, want)
		}
	}
}

// TestRingDropped: the claim counter carries the wraparound loss.
func TestRingDropped(t *testing.T) {
	r := NewRing(8, 1)
	for i := int64(0); i < 8; i++ {
		r.Append([]int64{i})
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped() = %d after filling exactly, want 0", got)
	}
	for i := int64(0); i < 3; i++ {
		r.Append([]int64{i})
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d after 11 appends into 8 slots, want 3", got)
	}
}

// TestRingNoTornReads laps a four-slot ring from eight writers at once
// while a reader snapshots continuously. Writers constantly land on the
// same slot a lap apart, so this covers writer-writer collisions as well
// as reader-writer ones (a plain store-to-invalidate protocol, without
// the compare-and-swap, tears records here in about half the runs). Every record repeats one value in all its
// words, so a torn read shows up as a mismatch. Run under -race for the
// full memory-model check.
func TestRingNoTornReads(t *testing.T) {
	const writers, perWriter, width = 8, 50000, 6
	r := NewRing(4, width)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot(func(rec []int64) {
				for _, v := range rec[1:] {
					if v != rec[0] {
						t.Errorf("torn record leaked: %v", rec)
						return
					}
				}
			})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rec [width]int64
			for i := 0; i < perWriter; i++ {
				for j := range rec {
					rec[j] = int64(w*perWriter + i)
				}
				r.Append(rec[:])
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	n := 0
	r.Snapshot(func([]int64) { n++ })
	if n != r.Cap() {
		t.Errorf("quiescent snapshot holds %d records, want %d", n, r.Cap())
	}
	if got, want := r.Dropped(), uint64(writers*perWriter-r.Cap()); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
}

// TestRingAppendZeroAlloc pins the shared record path at zero
// allocations; the tracer's TestAppendZeroAlloc and the profiler's
// TestCommitZeroAlloc gate the two callers on top of it.
func TestRingAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	r := NewRing(64, 13)
	var rec [13]int64
	if n := testing.AllocsPerRun(100, func() {
		rec[0]++
		r.Append(rec[:])
	}); n != 0 {
		t.Errorf("Append allocates %.1f/op, want 0", n)
	}
}
