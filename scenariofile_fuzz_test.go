package agilepower

import (
	"testing"
)

// FuzzParseScenario hardens the scenario-file decoder: arbitrary JSON
// must either yield a scenario its own Validate accepts or an error —
// never panic, never materialize an invalid scenario.
func FuzzParseScenario(f *testing.F) {
	f.Add(`{"hosts":4,"fleets":[{"kind":"mixed","count":8}],"horizonHours":2,"policy":"dpm-s3"}`)
	f.Add(`{"hosts":8,"fleets":[{"kind":"replicated","services":3,"replicas":2}],"manager":{"targetUtil":0.7,"forecast":"ewma"}}`)
	f.Add(`{"hosts":2,"fleets":[{"kind":"flat","count":4,"demand":2}],"ctrlplane":{"delayMS":2000,"loss":0.1}}`)
	f.Add(`{"hosts":2,"fleets":[{"kind":"flat"}],"ctrlplane":{"delayMS":-5}}`)
	f.Add(`{"hosts":2,"fleets":[{"kind":"flat"}],"ctrlplane":{"loss":7}}`)
	f.Add(`{"hostClasses":[{"count":2,"cores":32}],"fleets":[{"kind":"diurnal","count":4}],"churn":{"arrivalsPerHour":2}}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"spiky","count":3,"spikes":-1}]}`)
	f.Add(`{"hosts":-3,"fleets":[{"kind":"batch","count":1}],"horizonHours":-1}`)
	f.Add(`{"fleets":[{"kind":"nope"}]}`)
	f.Add(`{"hosts":4,"fleets":[]}`)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"faults":{"rate":0.3},"events":[{"at":"1h","action":"crash","target":"host-1..2","repair":"30m"},{"at":"2h","action":"fault-rate","rate":0.9,"duration":"1h"}]}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"90m","action":"demand-surge","factor":3,"fleet":"flat","duration":"1h"},{"at":"3h","action":"power-cap","watts":700}]}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"assert":[{"kind":"no-stranded-vm","over":"10m"},{"kind":"power-below","watts":2000},{"kind":"sla-violation-max","frac":0.1}]}`)
	f.Add(`{"hosts":8,"fleets":[{"kind":"diurnal","count":8}],"chaos":[{"pattern":"az-outage","intensity":0.5,"at":"2h","duration":"1h","salt":3},{"pattern":"thermal-emergency","intensity":1}]}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"-1h","action":"crash","target":"host-1"}]}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"chaos":[{"pattern":"flaky-resume","intensity":1}]}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"telemtryCap":100}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}],"manager":{"incremental":"off"},"shards":2,"evalWorkers":4}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"flat","count":2}]} trailing`)
	f.Fuzz(func(t *testing.T, input string) {
		sc, err := ParseScenario([]byte(input))
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("decoder produced a scenario its own Validate rejects: %v\ninput: %s", err, input)
		}
		// A materialized control plane is never dormant — dormant files
		// must leave the field nil so no plane is ever constructed.
		if sc.CtrlPlane != nil && !sc.CtrlPlane.Enabled() {
			t.Fatalf("decoder materialized a dormant control plane from %s", input)
		}
	})
}
