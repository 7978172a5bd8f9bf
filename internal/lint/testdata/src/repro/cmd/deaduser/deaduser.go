// Command deaduser is the fixture program's non-test user of deadlib.
package main

import (
	"fmt"

	"repro/internal/deadlib"
	"repro/internal/deadpeer"
)

func main() {
	e := deadlib.New(deadlib.Config{Used: 1})
	deadpeer.Drain(e)
	fmt.Println(e)
}
