package exec

import (
	"math"
	"slices"

	"relaxedcc/internal/sqltypes"
)

// This file implements the vectorized hash join:
//
//   - Join keys are normalized into columnar scratch arrays (class tag +
//     64-bit payload) batch-at-a-time — no per-row Key() strings. The
//     normalization preserves sqltypes.Key equality exactly: INT and FLOAT
//     collapse to one numeric class compared as float64, NULL never joins.
//   - The build side is one open-addressed table over precomputed 64-bit
//     key hashes: slot arrays plus an intrusive chain through row indexes,
//     no per-key map entries or match slices.
//   - Matches leave through the shared emitter (join.go): inner joins as
//     typed column vectors gathered from the probe batch and from the build
//     side, which is copied into column lanes as it is read; semi and anti
//     joins as the probe batch narrowed by a selection vector — steady-state
//     zero allocation.

// Key class codes for normalized join keys. INT and FLOAT share keyNum
// (payload compared as float64 bits with -0 normalized to +0) because
// sqltypes.Key encodes them identically when numerically equal; the other
// classes never compare equal across kinds, matching the encoding's
// distinct tags.
const (
	keyNull uint8 = iota
	keyNum        // float64 bits, -0 normalized to +0
	keyBool       // 0 or 1
	keyTime       // nanoseconds since the epoch
	keyStr        // payload in str
)

// joinKeys holds normalized key columns for a set of rows: one class array
// plus a 64-bit payload array (and a string array for keyStr) per key
// column, index-aligned with the rows. Payload bits are chosen so that
// bit equality within a class is key equality, which keeps the hash and
// the comparison consistent.
type joinKeys struct {
	cls  [][]uint8
	bits [][]uint64
	str  [][]string
}

func newJoinKeys(ncols int) *joinKeys {
	return &joinKeys{
		cls:  make([][]uint8, ncols),
		bits: make([][]uint64, ncols),
		str:  make([][]string, ncols),
	}
}

// reset truncates all columns, keeping capacity.
func (k *joinKeys) reset() {
	for c := range k.cls {
		k.cls[c] = k.cls[c][:0]
		k.bits[c] = k.bits[c][:0]
		k.str[c] = k.str[c][:0]
	}
}

// appendVal normalizes one key value into column c. All payload arrays
// advance in lockstep so row indexes stay aligned.
func (k *joinKeys) appendVal(c int, v sqltypes.Value) {
	var (
		cls uint8
		nb  uint64
		ns  string
	)
	switch v.Kind() {
	case sqltypes.KindNull:
		cls = keyNull
	case sqltypes.KindInt, sqltypes.KindFloat:
		f := v.Float()
		if f == 0 {
			f = 0 // normalize -0 so bit equality matches float equality
		}
		cls, nb = keyNum, math.Float64bits(f)
	case sqltypes.KindBool:
		cls = keyBool
		if v.Bool() {
			nb = 1
		}
	case sqltypes.KindTime:
		cls, nb = keyTime, uint64(v.Time().UnixNano())
	case sqltypes.KindString:
		cls, ns = keyStr, v.Str()
	}
	k.cls[c] = append(k.cls[c], cls)
	k.bits[c] = append(k.bits[c], nb)
	k.str[c] = append(k.str[c], ns)
}

// appendVec normalizes n values of vector v into key column c: v[idx[j]],
// or v[j] when idx is nil (the selection-vector convention).
func (k *joinKeys) appendVec(c int, v *sqltypes.Vec, idx []int32, n int) {
	if v.Kind == sqltypes.KindInt && v.Null == nil {
		// The common grouping key: a NOT NULL integer column.
		cls, bits, str := k.cls[c], k.bits[c], k.str[c]
		for j := 0; j < n; j++ {
			cls = append(cls, keyNum)
			bits = append(bits, math.Float64bits(float64(v.I64[at(idx, j)])))
			str = append(str, "")
		}
		k.cls[c], k.bits[c], k.str[c] = cls, bits, str
		return
	}
	for j := 0; j < n; j++ {
		k.appendVal(c, v.Value(at(idx, j)))
	}
}

// at resolves position j of a batch's active rows to a physical row index.
func at(idx []int32, j int) int {
	if idx == nil {
		return j
	}
	return int(idx[j])
}

// appendFrom copies key row r of src.
func (k *joinKeys) appendFrom(src *joinKeys, r int) {
	for c := range k.cls {
		k.cls[c] = append(k.cls[c], src.cls[c][r])
		k.bits[c] = append(k.bits[c], src.bits[c][r])
		k.str[c] = append(k.str[c], src.str[c][r])
	}
}

// appendBatch normalizes the keys of cb's active rows: column-at-a-time from
// cb's vectors when cols gives the key ordinals, row-at-a-time through the
// compiled key closures otherwise.
func (k *joinKeys) appendBatch(keys []Compiled, cols []int, ctx *EvalContext, cb *sqltypes.ColBatch) error {
	n := cb.NumActive()
	if cols == nil {
		for r := 0; r < n; r++ {
			row := cb.Row(at(cb.Sel, r))
			for c, ke := range keys {
				v, err := ke(ctx, row)
				if err != nil {
					return err
				}
				k.appendVal(c, v)
			}
		}
	}
	for c, ord := range cols {
		k.appendVec(c, cb.Col(ord), cb.Sel, n)
	}
	return nil
}

// hasNull reports whether any key column of row r is NULL (NULL keys never
// join).
func (k *joinKeys) hasNull(r int) bool {
	for c := range k.cls {
		if k.cls[c][r] == keyNull {
			return true
		}
	}
	return false
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashes appends one 64-bit hash per key row (n of them) to dst, mixing the
// class tags and payloads column-at-a-time.
func (k *joinKeys) hashes(dst []uint64, n int) []uint64 {
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for r := range out {
		out[r] = fnvOffset
	}
	for c := range k.cls {
		cls, bits, str := k.cls[c], k.bits[c], k.str[c]
		for r, h := range out {
			b := bits[r]
			if cls[r] == keyStr {
				b = fnvOffset
				for i := 0; i < len(str[r]); i++ {
					b = (b ^ uint64(str[r][i])) * fnvPrime
				}
			}
			out[r] = ((h^uint64(cls[r]))*fnvPrime ^ b) * fnvPrime
		}
	}
	for r, h := range out {
		// Finalize: FNV's low-bit diffusion is weak for small integer keys
		// and the tables mask with low bits.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		out[r] = h ^ h>>33
	}
	return dst[:len(dst)+n]
}

// keysEqual compares row ra of a with row rb of b, column-wise. NaN keys
// compare equal here (same bits) where float == would not; sqltypes.Key
// treated NaN the same way, so join behavior is unchanged.
func keysEqual(a *joinKeys, ra int, b *joinKeys, rb int) bool {
	for c := range a.cls {
		ca, cb := a.cls[c][ra], b.cls[c][rb]
		if ca != cb {
			return false
		}
		if ca == keyStr {
			if a.str[c][ra] != b.str[c][rb] {
				return false
			}
			continue
		}
		if a.bits[c][ra] != b.bits[c][rb] {
			return false
		}
	}
	return true
}

// HashJoin is an equi-join: it builds a hash table on the right (build)
// input and probes it with left (probe) rows. For semi/anti joins the
// output schema is the left schema.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Compiled
	// LeftKeyCols/RightKeyCols, when non-nil, give the key expressions'
	// column ordinals: the planner sets them for plain column-reference
	// keys so probing reads values directly instead of calling closures.
	LeftKeyCols, RightKeyCols []int
	Residual                  Compiled // extra non-equi condition, may be nil
	Kind                      JoinKind

	schema *Schema
	ctx    *EvalContext

	// Build side: its rows (the emitter's right lanes), their normalized keys
	// and the open-addressed table (power-of-two capacity, linear probing,
	// chains threaded through row indexes).
	buildKeys *joinKeys
	buildHash []uint64
	slotHead  []int32 // head build-row index per slot, -1 = empty
	slotHash  []uint64
	chainNext []int32 // next build row with the same hash, -1 = end
	mask      uint64

	// Probe state: the normalized keys of the emitter's current probe batch,
	// and the build row the inner-join emission resumes from.
	out       joinOut
	probeKeys *joinKeys
	probeHash []uint64
	chain     int32
}

// NewHashJoin builds a hash join; key lists must be equal length.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []Compiled, residual Compiled, kind JoinKind) *HashJoin {
	hj := &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual, Kind: kind}
	if kind == JoinInner {
		hj.schema = Concat(left.Schema(), right.Schema())
	} else {
		hj.schema = left.Schema()
	}
	return hj
}

// Schema implements Operator.
func (h *HashJoin) Schema() *Schema { return h.schema }

// Open implements Operator: it drains the build side batch-at-a-time into
// the right lanes, normalizes and hashes the keys, and assembles the
// open-addressed table.
func (h *HashJoin) Open(ctx *EvalContext) error {
	h.ctx = ctx
	h.chain = -1
	h.out.reset(ctx, h.Residual, h.Kind, len(h.Left.Schema().Cols), len(h.schema.Cols))
	h.out.right.Reset()
	if h.buildKeys == nil {
		h.buildKeys = newJoinKeys(len(h.RightKeys))
		h.probeKeys = newJoinKeys(len(h.LeftKeys))
	}
	h.buildKeys.reset()
	if err := h.Right.Open(ctx); err != nil {
		return err
	}
	err := eachBatch(h.Right, func(cb *sqltypes.ColBatch) error {
		h.out.right.AppendBatch(cb)
		return h.buildKeys.appendBatch(h.RightKeys, h.RightKeyCols, ctx, cb)
	})
	if err != nil {
		return err
	}
	if err := h.Right.Close(); err != nil {
		return err
	}
	h.buildTable()
	return h.Left.Open(ctx)
}

// buildTable sizes the slot arrays to twice the build cardinality (load
// factor <= 0.5) and inserts rows in reverse so each hash chain iterates in
// build order — preserving the match order of the previous implementation.
func (h *HashJoin) buildTable() {
	n := h.out.right.Len()
	capacity := 16
	for capacity < 2*n {
		capacity <<= 1
	}
	h.mask = uint64(capacity - 1)
	if cap(h.slotHead) < capacity {
		h.slotHead = make([]int32, capacity)
		h.slotHash = make([]uint64, capacity)
	}
	h.slotHead = h.slotHead[:capacity]
	h.slotHash = h.slotHash[:capacity]
	for i := range h.slotHead {
		h.slotHead[i] = -1
	}
	if cap(h.chainNext) < n {
		h.chainNext = make([]int32, n)
	}
	h.chainNext = h.chainNext[:n]
	h.buildHash = h.buildKeys.hashes(h.buildHash[:0], n)
	for r := n - 1; r >= 0; r-- {
		if h.buildKeys.hasNull(r) {
			continue
		}
		hash := h.buildHash[r]
		i := hash & h.mask
		for {
			if h.slotHead[i] < 0 {
				h.slotHead[i], h.slotHash[i] = int32(r), hash
				h.chainNext[r] = -1
				break
			}
			if h.slotHash[i] == hash {
				h.chainNext[r] = h.slotHead[i]
				h.slotHead[i] = int32(r)
				break
			}
			i = (i + 1) & h.mask
		}
	}
}

// lookup returns the head of the chain for hash, or -1.
func (h *HashJoin) lookup(hash uint64) int32 {
	i := hash & h.mask
	for {
		if h.slotHead[i] < 0 {
			return -1
		}
		if h.slotHash[i] == hash {
			return h.slotHead[i]
		}
		i = (i + 1) & h.mask
	}
}

// probeBatch normalizes and hashes the keys of the current probe batch into
// the reusable scratch columns.
func (h *HashJoin) probeBatch(cb *sqltypes.ColBatch) error {
	h.probeKeys.reset()
	if err := h.probeKeys.appendBatch(h.LeftKeys, h.LeftKeyCols, h.ctx, cb); err != nil {
		return err
	}
	h.probeHash = h.probeKeys.hashes(h.probeHash[:0], h.out.np)
	return nil
}

// matchesFor returns the chain head for probe row r of the current batch
// (-1 for NULL keys or no match).
func (h *HashJoin) matchesFor(r int) int32 {
	if h.probeKeys.hasNull(r) {
		return -1
	}
	return h.lookup(h.probeHash[r])
}

// pairMatches reports whether probe row r joins build row m: key equality
// (a chain only shares the hash) and then the residual.
func (h *HashJoin) pairMatches(r int, m int32) (bool, error) {
	if !keysEqual(h.probeKeys, r, h.buildKeys, int(m)) {
		return false, nil
	}
	return h.out.admit(r, int(m))
}

// anyMatch walks probe row r's chain for a joining build row, for semi/anti
// probes.
func (h *HashJoin) anyMatch(r int) (bool, error) {
	for m := h.matchesFor(r); m >= 0; m = h.chainNext[m] {
		if ok, err := h.pairMatches(r, m); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// NextVec implements Operator.
func (h *HashJoin) NextVec() (*sqltypes.ColBatch, bool, error) { return h.out.next(h, h.Left) }

// collectPairs fills the emitter's pair lists with up to n match pairs from
// the current probe batch; chain carries a probe row's unfinished matches
// across calls.
func (h *HashJoin) collectPairs(n int) (bool, error) {
	o := &h.out
	for len(o.pr) < n {
		if h.chain >= 0 {
			r := o.pi - 1
			for h.chain >= 0 && len(o.pr) < n {
				m := h.chain
				h.chain = h.chainNext[m]
				ok, err := h.pairMatches(r, m)
				if err != nil {
					return false, err
				}
				if ok {
					o.pr = append(o.pr, int32(r))
					o.pm = append(o.pm, m)
				}
			}
			continue
		}
		if o.pi >= o.np {
			return true, nil
		}
		h.chain = h.matchesFor(o.pi)
		o.pi++
	}
	return false, nil
}

// Close implements Operator. The build side is normally closed at the end
// of Open's build phase; closing it again here is a no-op on that path but
// releases it when Open failed mid-build (Close is idempotent per the
// Operator contract).
func (h *HashJoin) Close() error {
	h.out.right = sqltypes.Lanes{}
	h.slotHead, h.slotHash, h.chainNext = nil, nil, nil
	h.out.probe, h.chain = nil, -1
	errR := h.Right.Close()
	if errL := h.Left.Close(); errR == nil {
		return errL
	}
	return errR
}
