package analysis

import "testing"

func TestJournalSwitchesGolden(t *testing.T) {
	RunGolden(t, []*Analyzer{NewJournal("journalcodes/codes")}, "journalcodes/codes", "journalcodes/app")
}

func TestJournalUnusedGolden(t *testing.T) {
	// The unused-code check lives in its own scenario: an exhaustive
	// switch necessarily references every code, so a package exercising
	// exhaustiveness can never also carry an orphan.
	RunGolden(t, []*Analyzer{NewJournal("journalunused")}, "journalunused")
}
