# Drives the qif CLI through the trace-replay closed loop and the .qwp
# workload-IR surface:
#   dump-trace W  ->  run trace:F   reproduces W's op stream (fingerprint)
#   workloads export W -> lint -> run qwp:F  reproduces W as well
# on the testbed shape and on a custom --topology, plus rejection of a
# malformed --topology.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run outvar)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

function(expect_fail)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "command unexpectedly succeeded: ${ARGN}\n${out}")
  endif()
  set(fail_output "${out}${err}" PARENT_SCOPE)
endfunction()

# Extracts the `solo trace fp: HHHH` line `qif run` prints.
function(fingerprint outvar text)
  string(REGEX MATCH "solo trace fp: ([0-9a-f]+)" m "${text}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "no fingerprint line in output:\n${text}")
  endif()
  set(${outvar} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# --- Closed loop, classic engine -------------------------------------------
run(base_out ${QIF_CLI} run enzo --scale 0.5)
fingerprint(base_fp "${base_out}")
run(_ ${QIF_CLI} dump-trace enzo --scale 0.5 --out enzo.dxt)
run(replay_out ${QIF_CLI} run trace:enzo.dxt)
fingerprint(replay_fp "${replay_out}")
if(NOT replay_fp STREQUAL base_fp)
  message(FATAL_ERROR "replay fingerprint ${replay_fp} != original ${base_fp}")
endif()

# --- Closed loop on a custom topology ---------------------------------------
# The dump and its replay both run on a 4-OSS shape; the replay must
# reproduce the original op stream there too.
run(topo_out ${QIF_CLI} run enzo --scale 0.5 --topology 8x4x2)
fingerprint(topo_fp "${topo_out}")
run(_ ${QIF_CLI} dump-trace enzo --scale 0.5 --topology 8x4x2 --out enzo_topo.dxt)
run(topo_replay_out ${QIF_CLI} run trace:enzo_topo.dxt --topology 8x4x2)
fingerprint(topo_replay_fp "${topo_replay_out}")
if(NOT topo_replay_fp STREQUAL topo_fp)
  message(FATAL_ERROR
    "8x4x2 replay fingerprint ${topo_replay_fp} != original ${topo_fp}")
endif()
# A malformed shape is rejected with a clear error.
expect_fail(${QIF_CLI} run ior-easy-write --topology 7x3)
if(NOT fail_output MATCHES "bad --topology")
  message(FATAL_ERROR "--topology 7x3 failed without 'bad --topology':\n${fail_output}")
endif()

# --- .qwp export / lint / run ----------------------------------------------
run(_ ${QIF_CLI} workloads export enzo --ranks 4 --out enzo.qwp)
run(lint_out ${QIF_CLI} workloads lint enzo.qwp)
if(NOT lint_out MATCHES "ok \\(workload 'enzo', 4 rank\\(s\\)")
  message(FATAL_ERROR "unexpected lint output: ${lint_out}")
endif()
run(full_out ${QIF_CLI} run enzo)
fingerprint(full_fp "${full_out}")
run(qwp_out ${QIF_CLI} run qwp:enzo.qwp)
fingerprint(qwp_fp "${qwp_out}")
if(NOT qwp_fp STREQUAL full_fp)
  message(FATAL_ERROR "qwp replay fingerprint ${qwp_fp} != original ${full_fp}")
endif()

# --- Parameterized generators and name rejection ---------------------------
run(_ ${QIF_CLI} run ckpt:64m,1g,120)
run(_ ${QIF_CLI} run ior-easy-write --noise trace:enzo.dxt --instances 2 --scale 0.5)
expect_fail(${QIF_CLI} run nosuch-workload)
expect_fail(${QIF_CLI} workloads export nosuch-workload)
expect_fail(${QIF_CLI} workloads lint enzo.dxt)
