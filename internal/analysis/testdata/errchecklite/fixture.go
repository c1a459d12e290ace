// Package fixture seeds violations for the errchecklite analyzer. It is
// loaded by the test harness as if it lived under dagger/internal/transport.
package fixture

import (
	"bytes"
	"fmt"
	"os"
)

type conn struct{}

func (c *conn) Send(b []byte) error        { return nil }
func (c *conn) Close() error               { return nil }
func (c *conn) Stats() (sent, dropped int) { return 0, 0 }
func (c *conn) Read(b []byte) (int, error) { return 0, nil }
func notify(ch chan<- struct{})            { ch <- struct{}{} }

func dropped(c *conn, b []byte) {
	c.Send(b)     // want `Send returns an error that is silently dropped`
	c.Read(b)     // want `Read returns an error that is silently dropped`
	_ = c.Close() // explicit blank assignment documents intent
}

func handled(c *conn, b []byte) error {
	if err := c.Send(b); err != nil {
		return err
	}
	return c.Close()
}

func noErrorResultOK(c *conn, ch chan<- struct{}) {
	c.Stats()  // no error result
	notify(ch) // no results at all
}

func bufferOK(buf *bytes.Buffer, b []byte) {
	buf.Write(b)     // bytes.Buffer cannot fail
	buf.WriteByte(1) // bytes.Buffer cannot fail
}

func suppressed(c *conn, b []byte) {
	c.Send(b) // dagger:ignore errchecklite fixture: the suppression itself is under test
}

func stdoutPrintersOK(n int) {
	fmt.Println("progress:", n) // stdout printers are ceremonial
	fmt.Printf("progress: %d\n", n)
	fmt.Print(n)
	fmt.Fprintf(os.Stdout, "n=%d\n", n) // want `Fprintf returns an error that is silently dropped`
}
