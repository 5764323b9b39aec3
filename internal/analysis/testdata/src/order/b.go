package order

import "os"

// SinkB commits directly.
func SinkB() { _ = os.WriteFile("b", nil, 0o644) }

// ViaB reaches Commit from this file.
func ViaB() { Commit() }

// Meet is one hop from SinkA and SinkB.
func Meet() {
	SinkB()
	SinkA()
}

// Meet2 is two hops from Commit, through ViaB or ViaA.
func Meet2() {
	ViaB()
	ViaA()
}
