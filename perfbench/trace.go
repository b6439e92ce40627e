package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// chromeTrace writes one process's spans as Chrome trace_event JSON, which
// ui.perfetto.dev opens.
type chromeTrace struct {
	f *os.File
	w *bufio.Writer
}

func newChromeTrace(path, process string) (*chromeTrace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &chromeTrace{f: f, w: bufio.NewWriter(f)}
	fmt.Fprintf(t.w, "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%q}}", process)
	return t, nil
}

func (t *chromeTrace) thread(tid int, name string) {
	fmt.Fprintf(t.w, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}", tid, name)
}

// span writes one complete event; args is a JSON object.
func (t *chromeTrace) span(name, cat string, tid int, start, dur time.Duration, args string) {
	fmt.Fprintf(t.w, ",\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
		name, cat, tid, float64(start)/1e3, float64(dur)/1e3, args)
}

func (t *chromeTrace) close() error {
	fmt.Fprintln(t.w, "]")
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// writeReplicaTrace writes one thread per replica: an "iteration" span per
// iteration with its nn and codec spans nested inside, all carrying the
// iteration id.
func writeReplicaTrace(path string, replicas []*replica) error {
	t, err := newChromeTrace(path, "perfbench")
	if err != nil {
		return err
	}
	for _, r := range replicas {
		if len(r.starts) == 0 {
			continue // built but never trained (dist sizes buckets with a model)
		}
		t.thread(r.id, fmt.Sprintf("replica %d", r.id))
		for _, s := range r.spans {
			var name, cat string
			switch s.kind {
			case kindIter:
				name, cat = "iteration", "dist"
			case kindFwd:
				name, cat = fmt.Sprintf("L%d %s fwd", s.layer, r.names[s.layer]), "nn"
			case kindBwd:
				name, cat = fmt.Sprintf("L%d %s bwd", s.layer, r.names[s.layer]), "nn"
			case kindCompress:
				name, cat = "compress", "codec"
			case kindDecompress:
				name, cat = "decompress", "codec"
			}
			t.span(name, cat, r.id, time.Duration(s.start), time.Duration(s.dur), fmt.Sprintf(`{"iter":%d}`, s.iter))
		}
	}
	return t.close()
}

// writeJobTrace writes one thread per job of the service run, with its
// queued and running spans.
func writeJobTrace(path string, jobs []jobOutcome) error {
	var base time.Time
	for _, o := range jobs {
		if s := o.info.Submitted; !s.IsZero() && (base.IsZero() || s.Before(base)) {
			base = s
		}
	}
	t, err := newChromeTrace(path, "serve")
	if err != nil {
		return err
	}
	for i, o := range jobs {
		in := o.info
		if in.Started.IsZero() || in.Finished.IsZero() {
			continue
		}
		t.span("queued", "serve", i, in.Submitted.Sub(base), in.Started.Sub(in.Submitted), fmt.Sprintf(`{"job":%q}`, in.ID))
		t.span("running", "serve", i, in.Started.Sub(base), in.Finished.Sub(in.Started), fmt.Sprintf(`{"job":%q,"iterations":%d}`, in.ID, in.Iterations))
	}
	return t.close()
}
