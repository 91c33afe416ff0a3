package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around or derived for a
// request. Spans of one request share Trace; Parent is 0 for the root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
// Spans are recorded as each request completes, inside the timed phase,
// so the traced slices carry the cost of recording them. It is safe for
// concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	l.next++
	l.spans = append(l.spans, span{Trace: trace, ID: l.next, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return l.next
}

// addServed records a served request: a root span from the benchmark's
// own send and receive and, when it is OK, child spans derived from the
// response stamps: wire in, inbox, queue, service, wire out.
func (l *spanLog) addServed(o *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	trace := l.next
	root := l.add(trace, 0, "request", o.sent, o.recv)
	if o.class != outOK {
		return
	}
	t := o.timing
	l.add(trace, root, "wire.in", o.sent, t.Enqueue)
	l.add(trace, root, "inbox", t.Enqueue, t.Flush)
	l.add(trace, root, "queue", t.Flush, t.Service)
	l.add(trace, root, "service", t.Service, t.Respond)
	l.add(trace, root, "wire.out", t.Respond, o.recv)
}

// addPooled records an in-process pool request: the root from submit to
// result and the queue and service children from Future.Metrics.
func (l *spanLog) addPooled(sent, recv time.Time, queue, service time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	trace := l.next
	root := l.add(trace, 0, "request", sent, recv)
	if queue > 0 || service > 0 {
		l.add(trace, root, "queue", sent, sent.Add(queue))
		l.add(trace, root, "service", sent.Add(queue), sent.Add(queue+service))
	}
}

// write stores the spans as JSON lines in dir.
func (l *spanLog) write(dir, workload string) error {
	f, err := os.Create(filepath.Join(dir, "perfbench-"+workload+"-spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
