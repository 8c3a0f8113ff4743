package main

import (
	"flag"
	"fmt"
	"strconv"
)

// workersFlag registers -workers on fs. Every verb reads 0, the default, as
// GOMAXPROCS, as the library layers do; a negative count fails the parse.
func workersFlag(fs *flag.FlagSet, usage string) *int {
	n := new(int)
	fs.Func("workers", usage+" (`n` = 0, the default, selects GOMAXPROCS)", func(s string) error {
		v, err := strconv.Atoi(s)
		if err == nil && v < 0 {
			err = fmt.Errorf("must be 0 (GOMAXPROCS) or a positive count, got %d", v)
		}
		*n = v
		return err
	})
	return n
}
