package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"fftgrad/internal/dist"
)

// TestWorkerCrashRejoinsWithoutCrossTalk is the acceptance gate for
// fault isolation: kill a worker mid-job via the seeded chaos harness,
// and the job must recover through the cluster rejoin machinery while a
// concurrently running job on the same server is unaffected.
func TestWorkerCrashRejoinsWithoutCrossTalk(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	srv := New(Config{WorkerSlots: 6})

	// 4 workers so evicting the crashed rank keeps quorum (3/4 alive).
	crashRank := 2
	victim := fastSpec(21)
	victim.Workers = 4
	victim.Epochs = 3
	victim.Chaos = &ChaosSpec{
		Seed:            21,
		CrashRank:       &crashRank,
		CrashAtOp:       600,
		RecoverAfterOps: 600,
	}
	bystander := fastSpec(22)

	vi, err := srv.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := srv.Submit(bystander)
	if err != nil {
		t.Fatal(err)
	}

	soloAcc := soloRun(t, bystander)
	v := awaitTerminal(t, srv, vi.ID)
	b := awaitTerminal(t, srv, bi.ID)
	if v.State != StateCompleted {
		t.Fatalf("victim job state %s (%s)", v.State, v.Error)
	}
	if v.Rejoins == 0 {
		t.Fatal("crashed worker never rejoined: chaos schedule injected nothing")
	}
	if b.State != StateCompleted {
		t.Fatalf("bystander job state %s (%s)", b.State, b.Error)
	}
	if b.Rejoins != 0 {
		t.Fatalf("bystander recorded %d rejoins; fault leaked across jobs", b.Rejoins)
	}
	if b.TestAcc < soloAcc-0.02 {
		t.Fatalf("bystander accuracy %.3f more than 2 points below solo %.3f", b.TestAcc, soloAcc)
	}
}

func soloRun(t *testing.T, spec Spec) float64 {
	t.Helper()
	s := spec
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	job, err := s.buildJob()
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(dist.JobHarness{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Epochs[len(res.Epochs)-1].TestAcc
}

// awaitTerminal polls the server directly (no HTTP) until the job
// reaches a terminal state.
func awaitTerminal(t *testing.T, srv *Server, id string) Info {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for time.Now().Before(deadline) {
		info, err := srv.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State.terminal() {
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Info{}
}

// TestDrainSpoolsAndResumes: a drain halts running jobs at an iteration
// boundary, spools their final checkpoint, and a fresh server resumes
// the work from the spool file.
func TestDrainSpoolsAndResumes(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{WorkerSlots: 2, SpoolDir: dir})

	long := fastSpec(23)
	long.Epochs = 50
	info, err := srv.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first epoch so the drain catches the job mid-run.
	j, _ := srv.lookup(info.ID)
	for {
		events, more := j.wait(0)
		hasEpoch := false
		for _, ev := range events {
			if ev.Type == "epoch" {
				hasEpoch = true
			}
		}
		if hasEpoch {
			break
		}
		if more == nil {
			t.Fatal("job finished before the drain could interrupt it")
		}
		<-more
	}

	drained := srv.Drain()
	if len(drained) != 1 {
		t.Fatalf("drained %d jobs, want 1", len(drained))
	}
	got := drained[0]
	if got.State != StateHalted {
		t.Fatalf("drained job state %s, want halted", got.State)
	}
	want := filepath.Join(dir, info.ID+".ckpt")
	if got.Spool != want {
		t.Fatalf("spool path %q, want %q", got.Spool, want)
	}
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("spool file missing: %v", err)
	}

	// Admission is closed after the drain.
	if _, err := srv.Submit(fastSpec(24)); err == nil {
		t.Fatal("draining server accepted a job")
	}

	// A fresh server resumes from the spool and finishes quickly.
	srv2 := New(Config{WorkerSlots: 2})
	resumed := fastSpec(23)
	resumed.Epochs = 2
	resumed.ResumeFrom = want
	ri, err := srv2.Submit(resumed)
	if err != nil {
		t.Fatal(err)
	}
	rf := awaitTerminal(t, srv2, ri.ID)
	if rf.State != StateCompleted {
		t.Fatalf("resumed job state %s (%s)", rf.State, rf.Error)
	}
	if rf.TestAcc <= 0.5 {
		t.Fatalf("resumed accuracy %.3f", rf.TestAcc)
	}
}

// TestChaosSpecDefaults: a chaos block with delay_ms and no delay_prob
// delays 10% of messages, and a crash without ops crashes at op 1200 and
// recovers 1000 ops later. The submitted ChaosSpec is left as it was.
func TestChaosSpecDefaults(t *testing.T) {
	rank := 1
	submitted := ChaosSpec{Seed: 3, DelayMS: 10, CrashRank: &rank}
	s := fastSpec(1)
	s.Chaos = &submitted
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fault == nil || cfg.Fault.Chaos == nil {
		t.Fatal("chaos spec did not compile to a fault-path chaos schedule")
	}
	want := "chaos{seed=3 drop=0 delay=0.1@10ms dup=0 corrupt=0 crash[r1@1200+1000]}"
	if got := cfg.Fault.Chaos.String(); got != want {
		t.Fatalf("chaos %s, want %s", got, want)
	}
	if submitted.DelayProb != 0 || submitted.CrashAtOp != 0 || submitted.RecoverAfterOps != 0 {
		t.Fatalf("normalize modified the caller's ChaosSpec: %+v", submitted)
	}
}
