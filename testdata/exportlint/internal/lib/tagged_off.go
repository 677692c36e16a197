//go:build ignore

package lib

func Platform() string { return Tagged() }
