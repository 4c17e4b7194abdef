package analysis

// All returns every analyzer in the suite, in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PairingAnalyzer,
		LockScopeAnalyzer,
		ChanProtocolAnalyzer,
		DeterminismAnalyzer,
		CtxFlowAnalyzer,
		AddInGoroutineAnalyzer,
	}
}
