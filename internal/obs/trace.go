package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// TraceNode is one operator's record in a plan-shaped execution trace:
// inclusive wall time per iterator phase (a parent's Next time includes its
// children's), rows and batches produced, and the guard decision for
// SwitchUnion nodes. Children mirror the plan tree, including branches that
// were never opened (Opens == 0).
type TraceNode struct {
	Name     string        `json:"name"`
	Opens    int64         `json:"opens"`
	Open     time.Duration `json:"open_ns"`
	Next     time.Duration `json:"next_ns"`
	Close    time.Duration `json:"close_ns"`
	Rows     int64         `json:"rows"`
	Batches  int64         `json:"batches"`
	Guard    *GuardEvent   `json:"guard,omitempty"`
	Children []*TraceNode  `json:"children,omitempty"`
}

// Total returns the node's inclusive wall time across all phases.
func (n *TraceNode) Total() time.Duration { return n.Open + n.Next + n.Close }

// Render writes the trace as an indented plan tree with per-node timings —
// the EXPLAIN ANALYZE output.
func (n *TraceNode) Render(w io.Writer) {
	n.render(w, "", "", true)
}

// String renders the trace to a string.
func (n *TraceNode) String() string {
	var sb strings.Builder
	n.Render(&sb)
	return sb.String()
}

func (n *TraceNode) render(w io.Writer, prefix, childPrefix string, timings bool) {
	fmt.Fprintf(w, "%s%s", prefix, n.Name)
	if n.Opens == 0 {
		fmt.Fprintf(w, "  (not executed)")
	} else if timings {
		fmt.Fprintf(w, "  time=%s rows=%d", fmtDur(n.Total()), n.Rows)
		if n.Batches > 0 {
			fmt.Fprintf(w, " batches=%d", n.Batches)
		}
	} else {
		fmt.Fprintf(w, "  rows=%d", n.Rows)
	}
	if g := n.Guard; g != nil && n.Opens > 0 {
		stale := "unknown"
		if g.StalenessKnown {
			stale = g.Staleness.String()
		}
		if timings {
			fmt.Fprintf(w, " [guard %s -> %s branch, region %d, staleness %s]",
				fmtDur(g.GuardTime), g.Branch(), g.Region, stale)
		} else {
			fmt.Fprintf(w, " [guard -> %s branch, region %d, staleness %s]",
				g.Branch(), g.Region, stale)
		}
		if g.Degraded {
			fmt.Fprintf(w, " [DEGRADED: remote unavailable, served local]")
		}
		if g.BlockWaits > 0 {
			fmt.Fprintf(w, " [blocked %d wait(s)]", g.BlockWaits)
		}
	}
	fmt.Fprintln(w)
	for i, c := range n.Children {
		connector, indent := "├─ ", "│  "
		if i == len(n.Children)-1 {
			connector, indent = "└─ ", "   "
		}
		c.render(w, childPrefix+connector, childPrefix+indent, timings)
	}
}

// RenderShape writes the trace without wall-clock timings: node names, row
// counts and guard verdicts only. Under a virtual clock this rendering is
// fully deterministic, which is what the golden-output tests assert.
func (n *TraceNode) RenderShape(w io.Writer) {
	n.render(w, "", "", false)
}

// ShapeString returns the deterministic rendering as a string.
func (n *TraceNode) ShapeString() string {
	var sb strings.Builder
	n.RenderShape(&sb)
	return sb.String()
}

// fmtDur rounds a duration for display so trees stay readable.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

// Clone deep-copies the trace tree, including guard records. A query record
// clones its tree (QueryTrace.Trace) so what it publishes is immutable: the
// original nodes stay wired into the instrumented operator tree
// (exec.Instrument wraps children in place), and any future re-execution of
// that tree would otherwise mutate counters under a concurrent reader of the
// record.
func (n *TraceNode) Clone() *TraceNode {
	if n == nil {
		return nil
	}
	cp := *n
	if n.Guard != nil {
		g := *n.Guard
		cp.Guard = &g
	}
	if n.Children != nil {
		cp.Children = make([]*TraceNode, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}
