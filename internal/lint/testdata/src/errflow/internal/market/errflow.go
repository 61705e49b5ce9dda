// Package market is the errflow fixture: errors from the tracked store
// mutators and journal gates must be inspected on every path.
package market

// Store mimics the market store's mutator surface.
type Store struct{}

// Submit records an offer.
func (s *Store) Submit(id string) error { return nil }

// Accept transitions an offer.
func (s *Store) Accept(id string) error { return nil }

type writeLocked struct{}

type journaled struct{}

type shard struct {
	journal func(kind string) error
}

// journalLocked is the write-ahead gate; its receipt does not prove
// success, so errflow tracks its error.
func (sh *shard) journalLocked(_ writeLocked, kind string) (journaled, error) {
	if sh.journal == nil {
		return journaled{}, nil
	}
	return journaled{}, sh.journal(kind)
}

// insertLocked applies a submit that journalLocked already recorded.
func (sh *shard) insertLocked(_ journaled, id string) {}

func dropped(s *Store) {
	s.Submit("a") // want:errflow
}

func blank(s *Store) {
	_ = s.Submit("a") // want:errflow
}

func overwritten(s *Store) error {
	err := s.Submit("a") // want:errflow
	err = s.Accept("a")
	return err
}

func shadowed(s *Store, strict bool) error {
	err := s.Submit("a") // want:errflow
	if strict {
		if err := s.Accept("a"); err != nil {
			return err
		}
		return nil
	}
	return err
}

func partiallyChecked(s *Store, strict bool) error {
	err := s.Submit("a") // want:errflow
	if strict {
		return err
	}
	return nil
}

func gateDropped(sh *shard, w writeLocked) {
	sh.journalLocked(w, "submit") // want:errflow
}

func receiptKeptErrorDropped(sh *shard, w writeLocked) {
	rc, _ := sh.journalLocked(w, "submit") // want:errflow
	sh.insertLocked(rc, "a")
}

func gateChecked(sh *shard, w writeLocked) error {
	rc, err := sh.journalLocked(w, "submit")
	if err != nil {
		return err
	}
	sh.insertLocked(rc, "a")
	return nil
}

func checked(s *Store) error {
	if err := s.Submit("a"); err != nil {
		return err
	}
	return nil
}

func checkedBothPaths(s *Store, strict bool) error {
	err := s.Submit("a")
	if strict {
		return err
	}
	return wrap(err)
}

func wrap(err error) error { return err }

func loopChecked(s *Store, ids []string) error {
	for _, id := range ids {
		if err := s.Submit(id); err != nil {
			return err
		}
	}
	return nil
}
