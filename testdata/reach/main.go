// Command reach is the reachability gate's fixture: a root that calls A,
// other's E, W.F and W.G, runs lib.K through the interface lib.I, and
// prints a lib.T.
package main

import (
	"fmt"

	"reach/internal/lib"
	"reach/internal/other"
)

func main() {
	lib.A()
	other.E()
	other.W(0).F()
	other.W(0).G()
	lib.Run(lib.K{})
	fmt.Println(lib.T(0))
}
