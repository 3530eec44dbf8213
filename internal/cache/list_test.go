package cache

import (
	"testing"
	"unsafe"
)

// TestNodeIs48Bytes pins the queue node to Go's 48-byte size class: every
// resident and shadow entry of every class queue is one, and a replayed GET
// hit's relink touches three. At 56 bytes (64-bit Cost and Aux) it fell into
// the 64-byte class.
func TestNodeIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 48 {
		t.Fatalf("cache.Node is %d bytes, want 48", got)
	}
}
