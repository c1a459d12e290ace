// Package fixture exercises the // dagger:ignore suppression directive,
// using errchecklite as the target analyzer. A directive names the analyzer
// it silences and must record a reason; it covers its own line and the line
// below. Directives that suppress nothing are themselves diagnosed so stale
// exceptions cannot accumulate.
package fixture

// conn mimics a transport connection so errchecklite has a dropped error to
// diagnose.
type conn struct{}

func (c *conn) Send(b []byte) error { return nil }

// suppressedNextLine: the directive on its own line silences the diagnostic
// on the line below; no want expectation because no diagnostic escapes.
func suppressedNextLine(c *conn, b []byte) {
	// dagger:ignore errchecklite the send error is deliberately dropped in this demo
	c.Send(b)
}

// suppressedSameLine: a trailing directive covers its own line.
func suppressedSameLine(c *conn, b []byte) {
	c.Send(b) // dagger:ignore errchecklite demo of same-line suppression
}

// unusedSuppression: the directive names errchecklite but the covered lines
// are clean, so the suppression itself is diagnosed.
func unusedSuppression(c *conn, b []byte) error {
	// dagger:ignore errchecklite nothing wrong here // want `unused dagger:ignore suppression: no errchecklite diagnostic here`
	return c.Send(b)
}

// otherAnalyzer: a directive naming an analyzer outside this run is left
// alone — a single-analyzer run cannot judge it.
func otherAnalyzer(c *conn, b []byte) error {
	// dagger:ignore bufownership the send buffer is not pooled here
	return c.Send(b)
}

// wrongAnalyzerDoesNotSuppress: naming the wrong analyzer leaves the real
// diagnostic standing (and in a run including bufownership the directive
// would be reported unused).
func wrongAnalyzerDoesNotSuppress(c *conn, b []byte) {
	// dagger:ignore bufownership misdirected exception
	c.Send(b) // want `Send returns an error that is silently dropped`
}

// malformedMissingReason: a suppression with no recorded rationale is not
// honored — the diagnostic below still fires and the directive is reported.
func malformedMissingReason(c *conn, b []byte) {
	// dagger:ignore errchecklite // want `malformed dagger:ignore directive: missing reason \(write: // dagger:ignore <analyzer> <reason>\)`
	c.Send(b) // want `Send returns an error that is silently dropped`
}

// malformedEmpty: a bare directive is rejected outright.
func malformedEmpty(c *conn, b []byte) {
	// dagger:ignore // want `malformed dagger:ignore directive: missing analyzer name and reason`
	c.Send(b) // want `Send returns an error that is silently dropped`
}
