# Drives the qif CLI's --mitigate surface end to end:
#   - omitting --mitigate and passing `--mitigate off` produce identical
#     fingerprints (the off path is inert);
#   - a mitigated contended run really differs from the off run, and its
#     campaign dataset is identical across --jobs counts (the bit-identity
#     contract);
#   - the token:rate=64 study beats its off twin on mean degradation and
#     victim p99 with a nonzero throttle count (mitigation wins);
#   - malformed specs are rejected with a non-zero exit and a clear error.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_ok outvar)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

function(run_fail_matching pattern)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "command unexpectedly succeeded: ${ARGN}\n${out}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "command failed without '${pattern}': ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(extract_noisy_fp outvar text)
  if(NOT "${text}" MATCHES "noisy trace fp: ([0-9a-f]+)")
    message(FATAL_ERROR "no noisy trace fingerprint in output:\n${text}")
  endif()
  set(${outvar} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

set(RUN ${QIF_CLI} run ior-easy-write --noise ior-easy-read --instances 15
        --seed 17)

# `--mitigate off` is byte-for-byte the absent-flag path.
run_ok(plain ${RUN})
run_ok(explicit_off ${RUN} --mitigate off)
extract_noisy_fp(fp_plain "${plain}")
extract_noisy_fp(fp_off "${explicit_off}")
if(NOT fp_off STREQUAL fp_plain)
  message(FATAL_ERROR "--mitigate off fp ${fp_off} != absent-flag fp ${fp_plain}")
endif()

# A mitigated contended run throttles something: different fingerprint,
# and the CLI reports the controller telemetry line.
run_ok(mitigated ${RUN} --mitigate token)
extract_noisy_fp(fp_on "${mitigated}")
if(fp_on STREQUAL fp_off)
  message(FATAL_ERROR "--mitigate token left the noisy trace untouched (fp ${fp_on})")
endif()
if(NOT "${mitigated}" MATCHES "mitigation token:")
  message(FATAL_ERROR "no mitigation telemetry line in output:\n${mitigated}")
endif()

# Campaign twins: the mitigated dataset is identical at --jobs 1 and 4, and
# the comparison table shows both sides.
set(CAMPAIGN ${QIF_CLI} campaign custom --workload ior-easy-write
    --richness 0.25 --seed 7 --mitigate token)
run_ok(camp1 ${CAMPAIGN} --jobs 1 --out mitigate_j1.csv)
run_ok(camp4 ${CAMPAIGN} --jobs 4 --out mitigate_j4.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/mitigate_j1.csv ${WORK_DIR}/mitigate_j4.csv
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "mitigated campaign CSV differs between --jobs 1 and --jobs 4")
endif()
if(NOT "${camp1}" MATCHES "mitigation on-vs-off")
  message(FATAL_ERROR "no on-vs-off comparison table in campaign output:\n${camp1}")
endif()

# Mitigation wins: on the same contended campaign the rate-constrained
# token policy must beat its off twin on both mean degradation and victim
# p99, and must really have throttled something.
run_ok(study ${QIF_CLI} campaign custom --workload ior-easy-write --richness 0.25
       --seed 7 --mitigate token:rate=64 --json --out wins.csv)
string(REGEX MATCH "{\"policy\"[^\n]*" summary "${study}")
if(summary STREQUAL "")
  message(FATAL_ERROR "no {\"policy\":...} line in campaign --json output:\n${study}")
endif()
foreach(key off_deg on_deg off_p99_ms on_p99_ms throttle_waits)
  string(JSON ${key} GET "${summary}" ${key})
endforeach()
if(NOT (on_deg LESS off_deg AND on_p99_ms LESS off_p99_ms AND throttle_waits GREATER 0))
  message(FATAL_ERROR "mitigation did not win: deg ${off_deg} -> ${on_deg}, victim p99 "
                      "${off_p99_ms} -> ${on_p99_ms} ms, ${throttle_waits} throttle waits")
endif()

# Malformed specs are rejected with the offending token named.
run_fail_matching("bad --mitigate spec" ${QIF_CLI} run ior-easy-write --mitigate dial)
run_fail_matching("bad --mitigate spec" ${QIF_CLI} run ior-easy-write --mitigate token:cut=2)
run_fail_matching("bad --mitigate spec" ${QIF_CLI} campaign custom
                  --workload ior-easy-write --mitigate probe:min=5,max=3
                  --out rejected.csv)
