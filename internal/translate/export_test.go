package translate

// CheckEquivalence is checkEquivalence for the tests that also need the
// verifier, which imports this package.
var CheckEquivalence = checkEquivalence
