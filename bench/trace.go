package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName indexes spanNames; spans store the index, not the string.
type spanName uint8

const (
	spOp spanName = iota
	spQuery
	spStaged
	spParse
	spPrint
	spPlan
	spBuild
	spRun
	spRemote
	spBackend
	spParseDML
	spExecDML
	spTick
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "mtcache.query", "staged",
	"sqlparser.parse", "sqlparser.print", "opt.plan", "opt.build", "exec.run",
	"remote.query", "backend.query",
	"sqlparser.parse_dml", "backend.exec_dml",
	"repl.tick",
}

// span is one timed call into a layer. Ids start at 1; parent 0 means a
// root. Spans of one op share req.
type span struct {
	id, parent, req int32
	name            spanName
	start, end      int64 // ns since the trace began
}

// tracer keeps spans in memory, in begin order, until the run ends. It is
// used from the one client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name spanName, parent, req int32) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id-1].end = int64(time.Since(t.t0))
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Spans must be in begin order with ids 1..n (as the
// tracer records them), so a parent's children arrive sorted by start and
// one pass builds the union of their intervals.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		coveredTo[i] = s.start
	}
	for _, c := range spans {
		if c.parent == 0 {
			continue
		}
		p := c.parent - 1
		from, to := c.start, c.end
		if from < coveredTo[p] {
			from = coveredTo[p]
		}
		if to > spans[p].end {
			to = spans[p].end
		}
		if to > from {
			self[p] -= to - from
			coveredTo[p] = to
		}
	}
	return self
}

// layerStat sums the spans of one name.
type layerStat struct {
	count       int
	total, self int64
}

func (l layerStat) meanUS() float64 { return ratio(float64(l.total), float64(l.count)) / 1e3 }

func layerStats(spans []span) [numSpanNames]layerStat {
	var out [numSpanNames]layerStat
	self := selfTimes(spans)
	for i, s := range spans {
		l := &out[s.name]
		l.count++
		l.total += s.end - s.start
		l.self += self[i]
	}
	return out
}

// writeTrace writes the spans as JSON lines to <dir>/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
