package main

// digests are the recorded results digests (cellDigest) of the
// digest-checked workloads, at full and smoke size. Their pair sets are
// fixed and the seed sets only the order, so each digest holds for every
// seed. A change that moves a simulated result moves its digest;
// re-record it only together with the change that explains why.
var digests = map[string]string{
	"paper-cold":          "278bb7df0afa9171341d9b5647cf38e93fe9c22a626ecf24ef5db1c505caf4e3",
	"paper-cold/smoke":    "985d870e60557e86f2d117c9423205e1a91e0a2fdb52360b4b6ad9b2e64bceea",
	"sweep-screen":        "f3ef418ef62c7ea10dc33ba9dfbf5e827ba9f2eab68b3bafb389fd91cbdd3458",
	"sweep-screen/smoke":  "448f6de9204e736e5abd5ee5b332d84f132a88b4e0907a13e4c8f2a8ffbedeee",
	"scenario-cold":       "2ed134b493f9663be0230be5f429e795127d7e04b1e4aaa62b6fa7cd287ac80c",
	"scenario-cold/smoke": "c1191e7913447cab7b5526c5792aab6c05fa92b85522702705d9aab9cfed0054",
}

// recordedDigest returns the digest a run must reproduce, or "" when
// none is recorded (the passes of the run must then agree with each
// other).
func recordedDigest(workload string, smoke bool) string {
	key := workload
	if smoke {
		key += "/smoke"
	}
	return digests[key]
}
