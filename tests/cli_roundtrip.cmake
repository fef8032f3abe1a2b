# Drives the qif CLI through a full campaign -> train -> eval -> serve
# round trip: the model `qif train` writes is the .qifm file serving reads.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()
run(${QIF_CLI} run mdt-easy-write --noise ior-easy-write --instances 4 --scale 0.5)
# --stream-out emits per-case .qds shards + a .qdm manifest while the
# campaign runs, and exits non-zero unless the shards merge back
# byte-identically to the in-RAM dataset.
run(${QIF_CLI} campaign amrex --richness 0.5 --stream-out shards --out data.csv)
if(NOT EXISTS ${WORK_DIR}/shards/amrex.qdm)
  message(FATAL_ERROR "campaign --stream-out did not seal a manifest")
endif()
run(${QIF_CLI} dataset info shards/amrex.qdm)
# A two-campaign family runs as one task graph: the streamed shards must
# still merge to the in-RAM bytes at --jobs 4, and both outputs must equal
# the --jobs 1 run.
run(${QIF_CLI} campaign dlio --richness 0.5 --jobs 1 --stream-out dlio1 --out dlio1.qds)
run(${QIF_CLI} campaign dlio --richness 0.5 --jobs 4 --stream-out dlio4 --out dlio4.qds)
file(GLOB shards RELATIVE ${WORK_DIR}/dlio1 ${WORK_DIR}/dlio1/*.qds)
list(LENGTH shards n_shards)
if(n_shards LESS 2)
  message(FATAL_ERROR "campaign dlio --stream-out wrote ${n_shards} shard(s)")
endif()
list(TRANSFORM shards PREPEND "dlio1/" OUTPUT_VARIABLE at_jobs1)
foreach(a dlio1.qds ${at_jobs1})
  string(REPLACE "dlio1" "dlio4" b "${a}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign dlio --jobs 4 wrote ${b}, which differs from ${a} at --jobs 1")
  endif()
endforeach()
run(${QIF_CLI} train --data data.csv --out model.qifm --epochs 20)
file(READ ${WORK_DIR}/model.qifm magic LIMIT 4 HEX)
if(NOT magic STREQUAL "5149464d")  # "QIFM"
  message(FATAL_ERROR "qif train did not write a .qifm model (starts with hex ${magic})")
endif()
run(${QIF_CLI} eval --data data.csv --model model.qifm)
# The streamed manifest feeds the chunked trainer directly.
run(${QIF_CLI} eval --data shards/amrex.qdm --model model.qifm)
# The trained file publishes into a registry unchanged, and the published
# version serves batched predictions bit-identical to the sync path.
file(REMOVE_RECURSE ${WORK_DIR}/reg)
run(${QIF_CLI} serve publish --model model.qifm --model-dir reg)
execute_process(COMMAND ${QIF_CLI} serve verify --model-dir reg --requests 400
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" " 0 mismatches" zero_mismatches)
if(NOT rc EQUAL 0 OR zero_mismatches EQUAL -1)
  message(FATAL_ERROR "serve verify on the published model failed (${rc}):\n${out}\n${err}")
endif()
# Without a model, serve verify builds a synthetic net: both architectures
# must answer batched exactly as sync, with two producers and small batches
# putting many batch boundaries inside the run.
foreach(arch kernel attention)
  execute_process(COMMAND ${QIF_CLI} serve verify --arch ${arch} --requests 400
                          --producers 2 --max-batch 8 --json
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}" "\"identical\": true" identical)
  if(NOT rc EQUAL 0 OR identical EQUAL -1)
    message(FATAL_ERROR "serve verify --arch ${arch}: batched replies diverged from "
                        "sync (${rc}):\n${out}\n${err}")
  endif()
endforeach()
run(${QIF_CLI} dump-trace openpmd --scale 0.5 --out trace.dxt)
if(NOT EXISTS ${WORK_DIR}/reg/v1.qifm OR NOT EXISTS ${WORK_DIR}/trace.dxt)
  message(FATAL_ERROR "CLI round trip did not produce its artifacts")
endif()
