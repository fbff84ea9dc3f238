package machine

// SetPoolGrain overrides poolGrain for the package's external tests
// (journal_test.go) and returns the call that restores it, for t.Cleanup.
func SetPoolGrain(grain int) (restore func()) {
	old := poolGrain
	poolGrain = grain
	return func() { poolGrain = old }
}
