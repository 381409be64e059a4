package exec

import "relaxedcc/internal/sqltypes"

// Fixtures shared with the external test package: the reference evaluator
// and the differential suites live there because they import packages that
// import exec.
var (
	TestNow           = testNow
	TestSchema        = testSchema
	TestRows          = testRows
	TestTable         = storageTable
	TestBigTable      = parallelTable
	TestCompile       = compile
	TestCompileItem   = compileItem
	TestPred          = pred
	TestLifted        = lifted
	TestCompileKernel = compileKernel
	TestLift          = lift
	AssertSameRows    = assertSameRows
)

// Eval evaluates e on one row: the reference evaluator's form of an Expr
// (operators evaluate it a batch at a time).
func (e Expr) Eval(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
	if e.Fn == nil {
		return row[e.Col], nil
	}
	return e.Fn(ctx, row)
}
