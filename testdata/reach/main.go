// Command reach is the reachability gate's fixture: a root that calls A.
package main

import "reach/internal/lib"

func main() { lib.A() }
