package core

import "testing"

// TestHealthTransitions drives every (state, input) pair through the
// machine as event sequences: 'F' = Fail, 'O' = OK (primary transport),
// 'D' = DegradedOK (fallback transport). Each case asserts the state
// after every event, so a wrong intermediate transition is named, not
// just a wrong terminal one.
func TestHealthTransitions(t *testing.T) {
	cases := []struct {
		name   string
		events string
		want   []Health
	}{
		// From Healthy.
		{"healthy ok", "O", []Health{Healthy}},
		{"healthy degraded-ok", "D", []Health{Degraded}},
		{"healthy fail", "F", []Health{Suspect}},

		// From Suspect: one good probe of either flavour clears it;
		// QuarantineAfter(3) consecutive failures condemn.
		{"suspect ok", "FO", []Health{Suspect, Healthy}},
		{"suspect degraded-ok", "FD", []Health{Suspect, Degraded}},
		{"suspect fail short of quarantine", "FF", []Health{Suspect, Suspect}},
		{"suspect to quarantined", "FFF", []Health{Suspect, Suspect, Quarantined}},

		// From Degraded: same demotion path as Healthy, and a primary
		// success promotes straight back.
		{"degraded ok promotes", "DO", []Health{Degraded, Healthy}},
		{"degraded stays degraded", "DD", []Health{Degraded, Degraded}},
		{"degraded fail demotes", "DF", []Health{Degraded, Suspect}},
		{"degraded full demotion", "DFFF", []Health{Degraded, Suspect, Suspect, Quarantined}},

		// From Quarantined: failures keep it down; a success opens
		// probation, ProbationOK(2) consecutive successes readmit.
		{"quarantined fail stays", "FFFF", []Health{Suspect, Suspect, Quarantined, Quarantined}},
		{"quarantined to probation", "FFFO", []Health{Suspect, Suspect, Quarantined, Probation}},
		{"probation to healthy", "FFFOO", []Health{Suspect, Suspect, Quarantined, Probation, Healthy}},
		// A back-end reachable only via fallback earns Degraded, not
		// Healthy, out of probation — the dispatcher should know.
		{"probation to degraded", "FFFDD", []Health{Suspect, Suspect, Quarantined, Probation, Degraded}},
		{"probation mixed transports", "FFFOD", []Health{Suspect, Suspect, Quarantined, Probation, Degraded}},

		// Probation failure: straight back to quarantine, and the next
		// readmission costs the full probation again.
		{"probation fail", "FFFOF", []Health{Suspect, Suspect, Quarantined, Probation, Quarantined}},
		{"probation fail then full probation", "FFFOFOO",
			[]Health{Suspect, Suspect, Quarantined, Probation, Quarantined, Probation, Healthy}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ht HealthTracker
			for i, ev := range tc.events {
				var got Health
				switch ev {
				case 'F':
					got = ht.Fail()
				case 'O':
					got = ht.OK()
				case 'D':
					got = ht.DegradedOK()
				default:
					t.Fatalf("bad event %q", ev)
				}
				if got != tc.want[i] {
					t.Fatalf("after %q[:%d]: state = %v, want %v",
						tc.events, i+1, got, tc.want[i])
				}
				if got != ht.State() {
					t.Fatalf("return value %v != State() %v", got, ht.State())
				}
			}
		})
	}
}

// TestHealthProbationFailPinsCounter pins the probation-failure fix:
// failing out of probation must set the failure run to the quarantine
// threshold, so the counter matches the Quarantined state it just
// entered. Before the fix the run restarted near zero, which let a
// subsequent Suspect-path demotion count the probation failure twice.
func TestHealthProbationFailPinsCounter(t *testing.T) {
	var ht HealthTracker
	const qa = quarantineAfter
	for i := 0; i < qa; i++ {
		ht.Fail()
	}
	if ht.State() != Quarantined {
		t.Fatalf("setup: state = %v", ht.State())
	}
	ht.OK() // probation
	if ht.Fail() != Quarantined {
		t.Fatal("probation failure must re-quarantine")
	}
	if ht.failRun != qa {
		t.Fatalf("failRun = %d after probation failure, want pinned to %d", ht.failRun, qa)
	}
}

// TestHealthEligibility: dispatchable states are exactly Healthy,
// Suspect and Degraded.
func TestHealthEligibility(t *testing.T) {
	want := map[Health]bool{
		Healthy: true, Suspect: true, Degraded: true,
		Quarantined: false, Probation: false,
	}
	for h, e := range want {
		if h.Eligible() != e {
			t.Errorf("%v.Eligible() = %v, want %v", h, h.Eligible(), e)
		}
	}
}
