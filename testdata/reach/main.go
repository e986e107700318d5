// Command reach is the reachability gate's fixture: a root that calls A,
// and other's E and W.F.
package main

import (
	"reach/internal/lib"
	"reach/internal/other"
)

func main() {
	lib.A()
	other.E()
	other.W(0).F()
}
