package lint

// All returns every flexvet analyzer, in stable (alphabetical) order.
func All() []*Analyzer {
	return []*Analyzer{
		ClockCheck,
		DocCheck,
		ErrFlow,
		FloatCmp,
		LockOrder,
		MutexGuard,
		ValidateCheck,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
