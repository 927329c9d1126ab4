package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var b lib.Box
	b.WriteString("box")
	fmt.Println(lib.Count(b.Len()))
}
