// Package scenarios holds the curated scenario files. chaos.yaml and
// ha.yaml are the builtins `rmbench -exp chaos` and `-exp ha` run.
package scenarios

import "embed"

// FS holds every *.yaml file of this directory.
//
//go:embed *.yaml
var FS embed.FS
