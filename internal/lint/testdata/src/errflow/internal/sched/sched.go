// Package sched is the errflow fixture for the scheduler's ledger gates: a
// method row (Service.journalDecision) and a plain-function row
// (appendRecord).
package sched

// Service mimics the scheduler's write-ahead surface.
type Service struct {
	append func(kind string) error
}

type ledgered struct{}

// appendRecord journals one ledger record.
func appendRecord(s *Service, kind string) error { return s.append(kind) }

// journalDecision journals a decision and returns the receipt applying it
// needs.
func (s *Service) journalDecision(kind string) (ledgered, error) {
	if err := appendRecord(s, kind); err != nil {
		return ledgered{}, err
	}
	return ledgered{}, nil
}

func recordDropped(s *Service) {
	appendRecord(s, "run") // want:errflow
}

func decisionBlank(s *Service) ledgered {
	rc, _ := s.journalDecision("decision") // want:errflow
	return rc
}

func decisionChecked(s *Service) (ledgered, error) {
	rc, err := s.journalDecision("decision")
	if err != nil {
		return ledgered{}, err
	}
	return rc, nil
}
