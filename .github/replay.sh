#!/usr/bin/env bash
# replay.sh PORT: the CI smoke jobs' client. One session on the majicd or
# majic-gate at 127.0.0.1:PORT defines hotloop and sumsq (a caller of sq)
# and calls each three times. Any non-2xx answer fails the script.
set -e
base=http://127.0.0.1:$1
sid=$(curl -sf -X POST "$base/sessions" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
for src in \
  'function s = hotloop(n)\ns = 0;\nfor i = 1:n\n  s = s + i * 0.5;\nend\n' \
  'function y = sq(x)\ny = x * x;\n' \
  'function s = sumsq(n)\ns = 0;\nfor k = 1:n\n  s = s + sq(k);\nend\n' \
  'y = hotloop(1000);' 'z = sumsq(100);' \
  'y = hotloop(1000);' 'z = sumsq(100);' \
  'y = hotloop(1000);' 'z = sumsq(100);'; do
  curl -sf -X POST "$base/sessions/$sid/eval" -d "{\"src\":\"$src\"}" > /dev/null
done
curl -sf -X DELETE "$base/sessions/$sid"
