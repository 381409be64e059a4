package opt

import (
	"math"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Cost-model constants, in abstract milliseconds. Absolute values are
// calibrated loosely to a 2004-era server (the paper's testbed); what the
// experiments depend on is their relative order: per-byte shipping cost
// dominates large transfers, per-query latency dominates small ones, index
// seeks beat scans for selective predicates.
const (
	// costRow is the CPU cost of moving one row through an operator.
	costRow = 0.0001
	// costScanRow is the cost of reading one stored row during a scan.
	costScanRow = 0.00005
	// costSeek is the cost of one index seek.
	costSeek = 0.002
	// costHashBuild and costHashProbe are per-row hash-join costs.
	costHashBuild = 0.0002
	costHashProbe = 0.00015
	// costAggRow is the cost of grouping one input row and folding it into
	// its accumulators, derived from the ledger: BenchmarkExecAggregate takes
	// 33–55 ns per input row where BenchmarkExecScan/serial, which the model
	// prices at costScanRow+costRow, takes 5 — some seven scanned rows.
	costAggRow = 0.001
	// costSort is the per-row per-comparison sort coefficient.
	costSort = 0.0003
	// costRemoteQuery is the fixed per-remote-query overhead (round trip,
	// connection handling).
	costRemoteQuery = 1.0
	// costByte is the cost of shipping one byte from the back end.
	costByte = 0.00002
	// costGuard is the cost of evaluating one currency guard (a local
	// heartbeat-table lookup plus a comparison).
	costGuard = 0.05
	// costParallelStartup is the fixed overhead of a morsel-driven parallel
	// scan: partitioning the key range, starting the helpers (the consumer
	// runs morsels itself) and joining them at Close. It keeps point and
	// small range queries (the paper's Table 4.2 lookups) on serial plans —
	// parallelism only pays when the scan itself dwarfs the startup.
	costParallelStartup = 0.15
	// maxCostDOP caps the degree of parallelism the cost model assumes.
	// Scan throughput stops scaling well past a few workers on this
	// workload (latch + exchange contention), and a conservative cap keeps
	// remote-vs-local plan choices stable across machines with different
	// core counts.
	maxCostDOP = 4
)

// parallelScanCost estimates a morsel-parallel scan given the serial access
// cost: the per-row scan work divides across workers, the per-output-row CPU
// (which the single consumer pays) does not, and the startup term is fixed.
func parallelScanCost(serialCost, outRows float64, dop int) float64 {
	perOut := outRows * costRow
	scanWork := serialCost - perOut
	if scanWork < 0 {
		scanWork = 0
	}
	return costParallelStartup + scanWork/float64(dop) + perOut
}

// selectivity estimates the fraction of a leaf's rows satisfying one
// conjunct. An equality costs the same whatever its literal; a range reads
// its ends.
func selectivity(p *pins, stats *catalog.TableStats, e sqlparser.Expr) float64 {
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		col, lit, op := normalizeCompare(e)
		if col == "" {
			return 0.5
		}
		switch op {
		case sqlparser.OpEQ:
			return stats.SelectivityEq(col)
		case sqlparser.OpNE:
			return 1 - stats.SelectivityEq(col)
		case sqlparser.OpLT, sqlparser.OpLE:
			return stats.SelectivityRange(col, sqltypes.Null, p.val(lit))
		case sqlparser.OpGT, sqlparser.OpGE:
			return stats.SelectivityRange(col, p.val(lit), sqltypes.Null)
		}
		return 0.5
	case *sqlparser.BetweenExpr:
		col := columnOf(e.Expr)
		lo, okLo := e.Lo.(*sqlparser.Literal)
		hi, okHi := e.Hi.(*sqlparser.Literal)
		if col == "" || !okLo || !okHi {
			return 0.3
		}
		s := stats.SelectivityRange(col, p.val(lo), p.val(hi))
		if e.Not {
			return 1 - s
		}
		return s
	case *sqlparser.InExpr:
		col := columnOf(e.Expr)
		if col == "" || len(e.List) == 0 {
			return 0.3
		}
		s := float64(len(e.List)) * stats.SelectivityEq(col)
		if s > 1 {
			s = 1
		}
		if e.Not {
			return 1 - s
		}
		return s
	case *sqlparser.IsNullExpr:
		return 0.05
	case *sqlparser.NotExpr:
		return 1 - selectivity(p, stats, e.Inner)
	default:
		return 0.5
	}
}

// normalizeCompare extracts (column, literal, op) from col-op-literal or
// literal-op-col comparisons; the column is "" for anything else.
func normalizeCompare(e *sqlparser.BinaryExpr) (string, *sqlparser.Literal, sqlparser.BinOp) {
	if col := columnOf(e.Left); col != "" {
		if lit, ok := e.Right.(*sqlparser.Literal); ok {
			return col, lit, e.Op
		}
	}
	if col := columnOf(e.Right); col != "" {
		if lit, ok := e.Left.(*sqlparser.Literal); ok {
			return col, lit, flipOp(e.Op)
		}
	}
	return "", nil, e.Op
}

func flipOp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLT:
		return sqlparser.OpGT
	case sqlparser.OpLE:
		return sqlparser.OpGE
	case sqlparser.OpGT:
		return sqlparser.OpLT
	case sqlparser.OpGE:
		return sqlparser.OpLE
	default:
		return op
	}
}

func columnOf(e sqlparser.Expr) string {
	if ref, ok := e.(*sqlparser.ColumnRef); ok {
		return ref.Column
	}
	return ""
}

// leafSelectivity multiplies conjunct selectivities.
func leafSelectivity(leaf *Leaf) float64 {
	s := 1.0
	for _, p := range leaf.Preds {
		s *= selectivity(leaf.pins, leaf.Table.Stats, p)
	}
	if s < 1e-9 {
		s = 1e-9
	}
	return s
}

// leafRows estimates how many rows the leaf access returns.
func leafRows(leaf *Leaf) float64 {
	return float64(leaf.Table.Stats.Rows()) * leafSelectivity(leaf)
}

// leafRowBytes estimates the shipped width of one leaf row: the table's
// average row width scaled by the fraction of columns fetched.
func leafRowBytes(leaf *Leaf) float64 {
	frac := float64(len(leaf.Cols)) / float64(len(leaf.Table.Columns))
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	return float64(leaf.Table.Stats.RowBytes()) * frac
}

// joinRows estimates the output cardinality of joining a prefix of
// leftRows with a leaf of rightRows over the given join columns, using the
// standard 1/max(NDV) formula.
func joinRows(leftRows, rightRows float64, leaf *Leaf, rightCol string) float64 {
	ndv := float64(1)
	if cs := leaf.Table.Stats.Column(rightCol); cs != nil && cs.NDV > 0 {
		ndv = float64(cs.NDV)
	}
	out := leftRows * rightRows / ndv
	if out < 0 {
		out = 0
	}
	return out
}

// bestAccessCost estimates the cheapest access path for a leaf against its
// base table's indexes (used both for local planning at the back end and for
// estimating what the back end will pay to answer a remote fetch). It
// returns the cost and whether an index seek (vs a full scan) was chosen.
func bestAccessCost(leaf *Leaf) (float64, bool) {
	total := float64(leaf.Table.Stats.Rows())
	out := leafRows(leaf)
	scanCost := total*costScanRow + out*costRow
	best := scanCost
	usedIndex := false
	for _, idx := range leaf.Table.Indexes {
		sel, ok := indexPrefixSelectivity(leaf, idx)
		if !ok {
			continue
		}
		rowsTouched := total * sel
		c := costSeek + rowsTouched*costScanRow + out*costRow
		if !idx.Clustered {
			// Secondary index lookups pay an extra heap fetch per row.
			c += rowsTouched * costSeek * 0.1
		}
		if c < best {
			best = c
			usedIndex = true
		}
	}
	return best, usedIndex
}

// indexPrefixSelectivity estimates the selectivity achieved by driving the
// given index with the leaf's predicates; ok=false if no predicate
// constrains the index's leading column.
func indexPrefixSelectivity(leaf *Leaf, idx *catalog.Index) (float64, bool) {
	if len(idx.Columns) == 0 {
		return 1, false
	}
	lead := idx.Columns[0]
	sel := 1.0
	found := false
	for _, p := range leaf.Preds {
		if predColumn(p) == lead {
			sel *= selectivity(leaf.pins, leaf.Table.Stats, p)
			found = true
		}
	}
	return sel, found
}

// predColumn returns the single column a simple predicate constrains.
func predColumn(e sqlparser.Expr) string {
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		col, _, _ := normalizeCompare(e)
		return col
	case *sqlparser.BetweenExpr:
		return columnOf(e.Expr)
	case *sqlparser.InExpr:
		return columnOf(e.Expr)
	case *sqlparser.IsNullExpr:
		return columnOf(e.Expr)
	default:
		return ""
	}
}

// remoteFetchCost estimates a remote leaf fetch: fixed round trip + the back
// end's execution cost + shipping the rows.
func remoteFetchCost(leaf *Leaf) float64 {
	backend, _ := bestAccessCost(leaf)
	rows := leafRows(leaf)
	return costRemoteQuery + backend + rows*leafRowBytes(leaf)*costByte
}

// finishing prices the statement's grouping and ordering over rows input
// rows and returns the rows they and TOP leave. A local candidate and the
// back end (wholeRemoteCost) pay the same for it, so where a statement
// aggregates is decided by what access and shipping cost. With TOP n the
// sort is a bounded heap: each row is compared against n kept ones.
func finishing(q *Query, rows float64) (cost, out float64) {
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		cost += rows * costAggRow
		if len(q.GroupBy) > 0 {
			rows *= 0.1 // grouped output is much smaller
		} else {
			rows = 1
		}
	}
	top := float64(q.Top)
	if len(q.OrderBy) > 0 && rows > 1 {
		kept := rows
		if q.Top > 0 && top < kept {
			kept = top
		}
		cost += rows * costSort * math.Log2(kept+1)
	}
	if q.Top > 0 && rows > top {
		rows = top
	}
	return cost, rows
}

// estimateJoinOutput estimates (rows, bytesPerRow) of the query's join
// result, before grouping, ordering and TOP, for costing the
// ship-everything remote plan.
func estimateJoinOutput(q *Query) (rows, rowBytes float64) {
	rows = 0
	first := true
	var width float64
	for _, l := range q.Leaves {
		if l.Join != exec.JoinInner {
			continue
		}
		width += leafRowBytes(l)
		r := leafRows(l)
		if first {
			rows = r
			first = false
			continue
		}
		// Find a join pred connecting l to anything; use NDV formula.
		col := ""
		for _, j := range q.Joins {
			if j.RightLeaf == l.ID {
				col = j.RightCol
			}
			if j.LeftLeaf == l.ID {
				col = j.LeftCol
			}
		}
		if col == "" {
			rows *= r // cartesian
			continue
		}
		rows = joinRows(rows, r, l, col)
	}
	// Semi/anti leaves only filter.
	for _, l := range q.Leaves {
		if l.Join != exec.JoinInner {
			rows *= 0.7
		}
	}
	if width < 8 {
		width = 8
	}
	return rows, width
}

// wholeRemoteCost estimates the plan that ships the entire query to the back
// end — round trip + back-end execution, its finishing step included, +
// shipping the final result — and the rows that come back.
func wholeRemoteCost(q *Query) (cost, rows float64) {
	var backendCost float64
	prefixRows := 0.0
	first := true
	for _, l := range q.Leaves {
		access, _ := bestAccessCost(l)
		backendCost += access
		r := leafRows(l)
		if first {
			prefixRows = r
			first = false
		} else {
			col := ""
			for _, j := range q.Joins {
				if j.RightLeaf == l.ID {
					col = j.RightCol
				} else if j.LeftLeaf == l.ID {
					col = j.LeftCol
				}
			}
			if col == "" {
				prefixRows *= r
			} else {
				prefixRows = joinRows(prefixRows, r, l, col)
			}
			backendCost += r*costHashBuild + prefixRows*costHashProbe
		}
	}
	joined, width := estimateJoinOutput(q)
	fin, rows := finishing(q, joined)
	return costRemoteQuery + backendCost + fin + rows*width*costByte, rows
}
