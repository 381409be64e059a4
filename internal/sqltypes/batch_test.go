package sqltypes

import "testing"

// Warm only reads: a nil batch, an empty row and a NULL lead are all fine.
func TestBatchWarmReadsAnyBatch(t *testing.T) {
	Batch(nil).Warm()
	b := Batch{{}, {Null}, {NewInt(1), NewString("x")}}
	b.Warm()
	if len(b) != 3 || !b[2][1].Equal(NewString("x")) {
		t.Fatalf("Warm changed the batch: %v", b)
	}
}
