package main

import (
	"fmt"
	"sort"

	"example.com/lintfixture/internal/lib"
)

func main() {
	c := lib.Config{Limit: 3}
	ids := []int{2, 1}
	sort.Ints(ids)
	fmt.Println(lib.Used(c), c.Threshold, lib.ID(ids[0]), lib.Platform())
}
