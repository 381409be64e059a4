package exec

// Fixtures shared with the external test package: the reference evaluator
// and the differential suites live there because they import packages that
// import exec.
var (
	TestNow         = testNow
	TestSchema      = testSchema
	TestRows        = testRows
	TestTable       = storageTable
	TestBigTable    = parallelTable
	TestCompile     = compile
	TestCompileItem = compileItem
	TestKernel      = testKernel
	AssertSameRows  = assertSameRows
)
