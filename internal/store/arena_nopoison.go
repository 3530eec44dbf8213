//go:build !arenapoison

package store

const poisonReclaim = false // see poisonByte
