package journalunused

// CodeTestFixture is declared in a test file: not part of the taxonomy,
// so never reported.
const CodeTestFixture = "fixture"

// A test that records a code does not make the program record it.
func emitFromTest(j *journal) {
	j.record(CodeTestOnly)
}
