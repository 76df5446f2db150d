//go:build !linux

package atgis

func madviseSequential([]byte) error { return nil }

func madviseDontNeed([]byte) error { return nil }
