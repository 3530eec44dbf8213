package store

// AssertPagesFollowPeak shares the leases-follow-residency check with the
// external test package, which drives the store from internal/workload (a
// package this one cannot import: workload imports store).
var AssertPagesFollowPeak = assertPagesFollowPeak
