// Command bench is the nested module's caller of packages a and b.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	n, err := b.Total([]byte(`{}`))
	fmt.Println(a.ByBench(), n, err)
}
