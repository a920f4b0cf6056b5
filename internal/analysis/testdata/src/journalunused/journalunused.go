// Package journalunused pins the whole-program unused-code check: a
// declared reason code nothing ever records is dead taxonomy, and so is
// one only a test records.
package journalunused

const (
	CodeUsed     = "used"
	CodeOrphan   = "orphan"    // want `journal code CodeOrphan is declared but never recorded anywhere`
	CodeTestOnly = "test-only" // want `journal code CodeTestOnly is declared but never recorded anywhere`
)

type journal struct{ last string }

func (j *journal) record(code string) { j.last = code }

func emit(j *journal) {
	j.record(CodeUsed)
}
