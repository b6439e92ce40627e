package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"fftgrad/internal/serve"
	"fftgrad/internal/trace"
)

// serveWorkload is a closed loop of clients, each keeping one job in
// flight against an in-process serve.Server over loopback HTTP: POST
// /jobs, follow /jobs/{id}/events to the terminal event, GET /jobs/{id},
// submit the next.
type serveWorkload struct {
	clients int
	slots   int
	job     serve.Spec // Seed is set per run
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	submitMs  float64
	info      serve.Info
	firstLoss float64 // first epoch's mean loss, from the event stream
	err       error
}

// jobTraceEvents sizes each job's per-track timeline ring to 16
// iterations of history instead of the default 256: the server keeps
// every finished job's ring, and at the default a 20-second run would
// hold over half a gigabyte of them.
const jobTraceEvents = trace.DefaultEventsPerIteration * 16

// service is one server behind a loopback listener.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
	http *http.Client
}

func startService(slots, clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  serve.New(serve.Config{WorkerSlots: slots, TraceEvents: jobTraceEvents}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop drains the job service, then the HTTP server, and waits for both.
func (s *service) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.http.CloseIdleConnections()
}

// runJob submits spec and follows it to a terminal state.
func (s *service) runJob(spec serve.Spec) jobOutcome {
	var out jobOutcome
	body, _ := json.Marshal(spec) // a serve.Spec always marshals
	t0 := time.Now()
	resp, err := s.http.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var info serve.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	out.submitMs = float64(time.Since(t0)) / 1e6
	if resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Errorf("POST /jobs: %s", resp.Status)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("POST /jobs: %w", err)
		return out
	}

	out.firstLoss = math.NaN()
	resp, err = s.http.Get(s.url + "/jobs/" + info.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(line), &ev); err == nil && ev.Epoch != nil && math.IsNaN(out.firstLoss) {
			out.firstLoss = ev.Epoch.TrainLoss
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = s.http.Get(s.url + "/jobs/" + info.ID)
	if err != nil {
		out.err = err
		return out
	}
	err = json.NewDecoder(resp.Body).Decode(&out.info)
	resp.Body.Close()
	if err != nil {
		out.err = fmt.Errorf("GET /jobs/%s: %w", info.ID, err)
	}
	return out
}

// check counts a job's failures: rejected, not completed, or a loss that
// is non-finite or not below its first epoch's.
func (o jobOutcome) check(rep *report) {
	switch {
	case o.err != nil:
		rep.fail("job: %v", o.err)
	case o.info.State != serve.StateCompleted:
		rep.fail("job %s ended %s: %s", o.info.ID, o.info.State, o.info.Error)
	case math.IsNaN(o.info.TrainLoss) || math.IsInf(o.info.TrainLoss, 0):
		rep.fail("job %s final loss %v", o.info.ID, o.info.TrainLoss)
	case !(o.info.TrainLoss < o.firstLoss):
		rep.fail("job %s final loss %v not below its first epoch's %v", o.info.ID, o.info.TrainLoss, o.firstLoss)
	}
}

func (w *serveWorkload) samples(in serve.Info) float64 {
	return float64(in.Iterations * in.Workers * w.job.Batch)
}

// rssJobs is the job count at which the service workload reads its peak
// RSS. The server keeps every finished job's record, trace and profile
// rings, so resident memory grows with jobs served; reading it at a fixed
// count keeps a faster server from reporting more memory.
const rssJobs = 100

// runServe runs the service workload: set-up trials (a fresh server up to
// its first completed job), then the closed loop for the measured time.
func runServe(w *serveWorkload, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	rep := newReport()
	spec := w.job
	spec.Seed = seed

	var setupS, startS, firstS []float64
	for start := time.Now(); moreSetup(len(setupS), time.Since(start)); {
		t0 := time.Now()
		svc, err := startService(w.slots, w.clients)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		o := svc.runJob(spec)
		t2 := time.Now()
		svc.stop()
		rep.attempted++
		o.check(rep)
		setupS = append(setupS, t2.Sub(t0).Seconds())
		startS = append(startS, t1.Sub(t0).Seconds())
		firstS = append(firstS, t2.Sub(t1).Seconds())
	}

	svc, err := startService(w.slots, w.clients)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the set-up's garbage is not the measured window's
	u0 := readUsage()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var jobs []jobOutcome
	rss := math.NaN()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := svc.runJob(spec)
				mu.Lock()
				jobs = append(jobs, o)
				if len(jobs) == rssJobs {
					rss = peakRSSMB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	used := readUsage().since(u0)
	svc.stop()

	var submitMs, jobMs, queueMs, runMs, iterMs []float64
	var samples, iters float64
	var completed, rejected int
	finalLoss := math.NaN()
	for _, o := range jobs {
		rep.attempted++
		o.check(rep)
		if o.err != nil && o.info.ID == "" {
			rejected++
		}
		submitMs = append(submitMs, o.submitMs)
		in := o.info
		if in.State != serve.StateCompleted || in.Iterations == 0 {
			continue
		}
		completed++
		if !math.IsNaN(finalLoss) && math.Float64bits(in.TrainLoss) != math.Float64bits(finalLoss) {
			rep.fail("job %s final loss %v differs from an identical job's %v", in.ID, in.TrainLoss, finalLoss)
		}
		finalLoss = in.TrainLoss
		samples += w.samples(in)
		iters += float64(in.Iterations * in.Workers)
		jobMs = append(jobMs, float64(in.Finished.Sub(in.Submitted))/1e6)
		queueMs = append(queueMs, float64(in.Started.Sub(in.Submitted))/1e6)
		runMs = append(runMs, float64(in.Finished.Sub(in.Started))/1e6)
		iterMs = append(iterMs, float64(in.Finished.Sub(in.Started))/1e6/float64(in.Iterations))
	}
	if completed == 0 {
		rep.fail("no job completed")
		return rep, nil
	}
	if math.IsNaN(rss) {
		rep.fail("only %d jobs ran; peak_rss_mb is taken at job %d", len(jobs), rssJobs)
	}
	rep.note("jobs: %d completed of %d; iter_ms over %d jobs", completed, len(jobs), len(iterMs))

	if !traced {
		rep.e2e("samples_per_s", samples/wall, "1/s")
		rep.e2e("iter_ms_p50", median(append([]float64(nil), iterMs...)), "ms")
		rep.e2e("alloc_mb_per_iter", used.allocMB/iters, "MB")
		rep.e2e("cpu_ms_per_iter", used.cpuS*1e3/iters, "ms")
		rep.e2e("peak_rss_mb", rss, "MB")
		rep.e2e("setup_s", median(setupS), "s")
		return rep, nil
	}
	rep.tail("dist.iter_ms_p90", iterMs, 0.90)
	rep.perLayer("serve.job_ms_p50", median(jobMs), "ms")
	rep.tail("serve.job_ms_p95", jobMs, 0.95)
	rep.perLayer("serve.submit_ms_p50", median(submitMs), "ms")
	rep.tail("serve.submit_ms_p95", submitMs, 0.95)
	rep.perLayer("serve.queue_ms", median(queueMs), "ms")
	rep.perLayer("serve.run_ms", median(runMs), "ms")
	rep.perLayer("serve.rejected", float64(rejected), "count")
	rep.perLayer("train.final_loss", finalLoss, "loss")
	rep.perLayer("setup.data_s", 0, "s")
	rep.perLayer("setup.model_s", median(startS), "s")
	rep.perLayer("setup.first_iter_s", median(firstS), "s")
	if traceOut != "" {
		if err := writeJobTrace(traceOut, jobs); err != nil {
			rep.note("trace not written: %v", err)
		} else {
			rep.note("trace: %s", traceOut)
		}
	}
	return rep, nil
}
