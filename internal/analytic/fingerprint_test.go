package analytic

import (
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/profile"
)

// fingerprintPins are the machine fingerprint and the stream-profile key
// (from its "|geo=" field on) of the scaled machine with one catalogue
// entry swapped in: every policy at every level, every predictor and
// prefetchers. They were captured before components became specs; only
// the configured-prefetcher rows have changed since, by their "-v2" tag
// (each hierarchy owns its prefetcher state). Any other drift would
// re-key every stored result.
var fingerprintPins = []struct{ name, fingerprint, profileKey string }{
	{"default", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"haswell", "machine|kernel=batched-v4|haswell-e5-2650lv3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:31457280:20:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=true", "|geo={L1Lines:512 L2Lines:4096 L3Lines:491520}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1i.policy=lru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1d.policy=lru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l2.policy=lru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l3.policy=lru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1i.policy=plru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:plru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:plru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1d.policy=plru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:plru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l2.policy=plru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:plru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l3.policy=plru", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:plru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1i.policy=srrip", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:srrip|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:srrip|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1d.policy=srrip", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:srrip|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l2.policy=srrip", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:srrip|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l3.policy=srrip", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:srrip|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1i.policy=random:seed=0", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:random:seed=0|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:random:seed=0|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1d.policy=random:seed=0", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:random:seed=0|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l2.policy=random:seed=0", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:random:seed=0|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l3.policy=random:seed=0", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:random:seed=0|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1i.policy=random:seed=42", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:random:seed=42|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:random:seed=42|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l1d.policy=random:seed=42", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:random:seed=42|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l2.policy=random:seed=42", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:random:seed=42|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"l3.policy=random:seed=42", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:random:seed=42|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"predictor=static-taken", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=static-taken:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=static-taken:12:16"},
	{"predictor=bimodal:14", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=bimodal:14:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=bimodal:14:12:16"},
	{"predictor=gshare:14:12", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=gshare:14:12:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=gshare:14:12:12:16"},
	{"predictor=two-level-local:10:12", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=two-level-local:10:12:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=two-level-local:10:12:12:16"},
	{"predictor=two-level-local:12:12", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=two-level-local:12:12:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=two-level-local:12:12:12:16"},
	{"predictor=tournament:13", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:13[gshare:13:13,two-level-local:12:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:13[gshare:13:13,two-level-local:12:12]:12:16"},
	{"predictor=tournament:14", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"predictor=perceptron:10:24", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=perceptron:10:24:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=perceptron:10:24:12:16"},
	{"predictor=tage:11", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tage:11:5,15,44,64[bimodal:13]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tage:11:5,15,44,64[bimodal:13]:12:16"},
	{"predictor=", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=none|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"prefetcher=nextline:64:1", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=nextline:64:1-v2|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"prefetcher=nextline:64:4", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=nextline:64:4-v2|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"prefetcher=stride:64:2", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=stride:64:2-v2|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
	{"prefetcher=stride:128:8", "machine|kernel=batched-v4|haswell-scaled-l3|l1i:32768:8:64:lru|l1d:32768:8:64:lru|l2:262144:8:64:lru|l3:2097152:16:64:lru|pf=stride:128:8-v2|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16|pipe=4:12:12:36:230:3:30:6|clock=1.8e+09|unified=false", "|geo={L1Lines:512 L2Lines:4096 L3Lines:32768}|l1i=32768:8:64:lru|l1d.line=64|bp=tournament:14[gshare:14:14,two-level-local:13:12]:12:16"},
}

// pinConfig builds the configuration a pin row names.
func pinConfig(t *testing.T, name string) machine.Config {
	if name == "haswell" {
		return machine.Haswell()
	}
	c := machine.HaswellScaled()
	h := &c.Hierarchy
	key, spec, _ := strings.Cut(name, "=")
	switch key {
	case "default":
	case "predictor":
		c.Predictor = branch.Spec(spec)
	case "prefetcher":
		h.Prefetcher = cache.Prefetcher(spec)
	case "l1i.policy", "l1d.policy", "l2.policy", "l3.policy":
		levels := map[string]*cache.Config{"l1i": &h.L1I, "l1d": &h.L1D, "l2": &h.L2, "l3": &h.L3}
		levels[strings.TrimSuffix(key, ".policy")].Policy = cache.Policy(spec)
	default:
		t.Fatalf("unknown pin row %q", name)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

func TestFingerprintPins(t *testing.T) {
	model := profile.CPU2017()[0].Expand(profile.Test)[0].Model
	pinned := map[string]bool{}
	for _, pin := range fingerprintPins {
		pinned[pin.name] = true
		c := pinConfig(t, pin.name)
		if got := c.Fingerprint(); got != pin.fingerprint {
			t.Errorf("%s: Fingerprint\n got %s\nwant %s", pin.name, got, pin.fingerprint)
		}
		key := ProfileKey(c, model)
		if got := key[strings.Index(key, "|geo="):]; got != pin.profileKey {
			t.Errorf("%s: ProfileKey\n got %s\nwant %s", pin.name, got, pin.profileKey)
		}
	}
	for _, p := range cache.Policies() {
		for _, l := range []string{"l1i", "l1d", "l2", "l3"} {
			if name := l + ".policy=" + p.String(); !pinned[name] {
				t.Errorf("no pin row %s", name)
			}
		}
	}
	for _, p := range branch.Predictors() {
		if name := "predictor=" + string(p); !pinned[name] {
			t.Errorf("no pin row %s", name)
		}
	}
}
