// Command sfsbench is the repository's end-to-end benchmark of the
// checker. It drives generate → execute → check → store → journal →
// report through the same public calls sfs-run makes, each measured run in
// a fresh child process, checks every journal against recorded known
// answers, and prints one JSON result line last.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash sfsbench/run.sh --workload seq-cold --seed 1 --seconds 12 --trace 0
//	bash sfsbench/run.sh aa                  # A/A: two interleaved sets
//	bash sfsbench/run.sh record              # re-record known answers
//
// README.md describes the workloads and metrics.
package main

import "os"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "aa":
			os.Exit(aaMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}
