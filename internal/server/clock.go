package server

import "time"

// nowNano returns a monotonic timestamp as a duration, isolated here so
// tests could stub it if ever needed.
func nowNano() time.Duration {
	return time.Duration(time.Now().UnixNano())
}
