package lint

import "strings"

// pathSegments splits an import path on "/".
func pathSegments(path string) []string { return strings.Split(path, "/") }

// isInternalPkg reports whether path is a deterministic simulation
// package: anything under an internal/ tree. The whole repository's
// library code lives in repro/internal/..., so this is the scope where
// virtual-time and seeded-randomness rules apply.
func isInternalPkg(path string) bool {
	for _, seg := range pathSegments(path) {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// isCmdPkg reports whether path is a command: binaries under cmd/ are
// allowed to measure wall-clock time for stderr progress reporting.
func isCmdPkg(path string) bool {
	for _, seg := range pathSegments(path) {
		if seg == "cmd" {
			return true
		}
	}
	return false
}

// isSimPkgPath reports whether path is the simulation kernel package
// (last segment exactly "sim" under an internal tree).
func isSimPkgPath(path string) bool {
	segs := pathSegments(path)
	return isInternalPkg(path) && segs[len(segs)-1] == "sim"
}

// isNetapiPkgPath reports whether path is the backend-seam package
// (last segment exactly "netapi" under an internal tree).
func isNetapiPkgPath(path string) bool {
	segs := pathSegments(path)
	return isInternalPkg(path) && segs[len(segs)-1] == "netapi"
}

// isBytepoolPath reports whether path is the byte-pool package.
func isBytepoolPath(path string) bool {
	segs := pathSegments(path)
	return segs[len(segs)-1] == "bytepool"
}
