// Package order holds two files with paths to an artifact commit from
// each, so a backward trace's recorded hops depend on which file it
// visits first.
package order

import "os"

// SinkA commits directly.
func SinkA() { _ = os.WriteFile("a", nil, 0o644) }

// Commit is the helper both ViaA and ViaB commit through.
func Commit() { _ = os.WriteFile("c", nil, 0o644) }

// ViaA reaches Commit from this file.
func ViaA() { Commit() }
