//go:build !ignore

package lib

// Platform is declared once per build; tagged_off.go holds the other one.
func Platform() string { return "on" }
