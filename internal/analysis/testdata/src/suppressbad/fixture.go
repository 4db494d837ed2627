// Package suppressbad holds malformed suppression directives and a
// stale directive of a verb harmonyvet no longer has; the validation
// test asserts they are reported and do not suppress.
package suppressbad

import "fmt"

func MissingReason(m map[string]int) {
	//harmonyvet:ignore maporder
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func UnknownAnalyzer(m map[string]int) {
	//harmonyvet:ignore nosuchcheck because reasons
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func StaleDirective(m map[string]int) {
	//harmonyvet:allocfree
	for k, v := range m {
		fmt.Println(k, v)
	}
}
