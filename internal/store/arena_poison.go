//go:build arenapoison

package store

const poisonReclaim = true // see poisonByte
