package lib

import "testing"

func TestUnused(t *testing.T) { Unused() }
