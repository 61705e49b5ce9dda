package market

// One pair per control-flow shape errflow's forward walk must follow: the
// first function of each pair leaves the error unread on a path through
// that shape's edges, its twin reads it on every path that can return (a
// panicking arm cannot).

func oneArmedIfUnread(s *Store, verbose bool) {
	err := s.Submit("a") // want:errflow
	if verbose {
		println(err)
	}
}

func oneArmedIfJoinRead(s *Store, verbose bool) error {
	err := s.Submit("a")
	if verbose {
		println("submitted")
	}
	return err
}

func earlyReturnUnread(s *Store, cached bool) error {
	err := s.Submit("a") // want:errflow
	if cached {
		return nil
	}
	return err
}

func earlyReturnRead(s *Store, cached bool) error {
	err := s.Submit("a")
	if cached {
		return wrap(err)
	}
	println("fresh")
	return err
}

func forBreakUnread(s *Store, tries int) {
	err := s.Submit("a") // want:errflow
	for {
		if tries == 0 {
			break
		}
		println(err)
		tries--
	}
}

func forBreakRead(s *Store, tries int) error {
	err := s.Submit("a")
	for {
		if tries == 0 {
			println(err)
			break
		}
		tries--
	}
	return nil
}

func selectDefaultUnread(s *Store, ch chan int) {
	err := s.Submit("a") // want:errflow
	select {
	case <-ch:
		println(err)
	default:
	}
}

func selectDefaultRead(s *Store, ch chan int) error {
	err := s.Submit("a")
	select {
	case <-ch:
		return err
	default:
	}
	return err
}

func switchNoCaseUnread(s *Store, kind int) error {
	err := s.Submit("a") // want:errflow
	switch kind {
	case 0:
		return err
	case 1:
		return wrap(err)
	}
	return nil
}

func switchEveryCaseRead(s *Store, kind int) error {
	err := s.Submit("a")
	switch kind {
	case 0:
		return err
	case 1:
		return wrap(err)
	}
	return err
}

func labeledBreakUnread(s *Store, n int) error {
	err := s.Submit("a") // want:errflow
outer:
	for {
		for {
			if n == 0 {
				break outer
			}
			n--
			if n%2 == 0 {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func labeledBreakThenRead(s *Store, n int) error {
	err := s.Submit("a")
outer:
	for {
		for {
			if n == 0 {
				break outer
			}
			n--
		}
	}
	return err
}

func elseOnlyRead(s *Store, bad bool) {
	err := s.Submit("a") // want:errflow
	if bad {
		println("bad")
	} else {
		println(err)
	}
}

func panicArmElseRead(s *Store, bad bool) {
	err := s.Submit("a")
	if bad {
		panic("bad")
	} else {
		println(err)
	}
}
