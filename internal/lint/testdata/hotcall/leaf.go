// Leaf fixture for the hotcall analyzer: the per-call allocation shapes
// inside one //hot function, with no call-graph propagation involved.
// Type-checked on its own under the impersonated mltcp/internal/sim
// path so the scope check passes.
package fixture

import "fmt"

type handler interface{ handle() }

type box struct{ n int }

func (box) handle() {}

func takes(h handler) {}

// hot
func hotClosure(n int) func() int {
	f := func() int { return n } // want "closure literal in //hot function hotClosure"
	return f
}

// hot
func hotBoxing(h handler, v box) {
	takes(v)           // want "value of type .*box passed to interface parameter in //hot function hotBoxing"
	takes(h)           // already an interface: no boxing
	takes(&v)          // pointer-shaped: converts without allocating
	fmt.Println(v.n)   // want "value of type int passed to interface parameter in //hot function hotBoxing"
	_ = handler(v)     // want "conversion of .*box to interface .*handler in //hot function hotBoxing"
	_ = handler(&v)    // pointer conversion: free
	_ = []handler{nil} // nil needs no boxing
	takes(nil)         // nil needs no boxing
}

// hot
func hotJustified(v box) {
	takes(v) //lint:allow hotcall fixture: justified cold-path boxing
}

// coldFn has no //hot marker: the same shapes pass untouched.
func coldFn() {
	_ = func() int { return 1 }
	takes(box{})
	fmt.Println(3)
}
