// Package lib is the export lint's fixture. cmd/tool is its only caller;
// TestExportLintFixture lists the findings it expects.
package lib

import "fmt"

// Config is built by cmd/tool, which sets Limit and only reads Threshold.
type Config struct {
	Limit     int
	Threshold int
}

// Used is called from cmd/tool.
func Used(c Config) int { return c.Limit + c.Threshold }

// Unused is called only from this package's test.
func Unused() {}

// Tagged is called only from tagged_off.go, which the default build
// context excludes.
func Tagged() string { return "off" }

// ID is printed by cmd/tool, so fmt calls String through fmt.Stringer.
type ID int

func (id ID) String() string { return fmt.Sprintf("id%d", int(id)) }

// Len shares its name with sort.Interface's method, but ID does not
// satisfy sort.Interface.
func (id ID) Len() int { return 1 }
