# Drives the sanmap binary through one operator bring-up and diffs every
# step's stdout and stderr against a recorded expectation:
#
#   sanmap gen ... | map | routes --sample 20 | lint --json
#   sanmap lint --sabotage-turn          (must exit 2 naming an SL101 hop)
#   sanmap routes / lint --engine dfs --optimize   (the route optimizer)
#   sanmap serve --churn ... --snapshot-out   (a switch and a host go down
#                                  and come back inside the tick window; the
#                                  table shows the outage repair and then
#                                  the repair after the revival)
#   sanmap query --snapshot ... --sample 5
#   sanmap serve / query --engine dfs --optimize   (the same churn; decode
#                                  of an optimized DFS-engine snapshot)
#   sanmap serve --root NAME       (an unknown root: refused up front, exit 1)
#
# Usage (ctest registers one run per scenario):
#   cmake -DSANMAP=path/to/sanmap -DSCENARIO=NAME "-DGEN_ARGS=--topology now"
#         -DEXPECTED_DIR=tests/cli/expected -DWORK_DIR=scratch/dir
#         -P tests/cli/cli_scenario.cmake
#
# Re-record the expectations (only when a change deliberately alters CLI
# output) by adding -DUPDATE=1.
foreach(var SANMAP SCENARIO GEN_ARGS EXPECTED_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_scenario: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(gen_args UNIX_COMMAND "${GEN_ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs one sanmap step in WORK_DIR (relative file names keep the output
# location-independent), checks its exit code and diffs its stdout and
# stderr (recorded one after the other in one expectation file).
function(step name want_exit)
  execute_process(
    COMMAND "${SANMAP}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE got_exit
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(APPEND out "--- stderr ---\n${err}")
  if(NOT got_exit STREQUAL "${want_exit}")
    message(FATAL_ERROR "${SCENARIO}/${name}: sanmap ${ARGN} exited "
                        "${got_exit}, expected ${want_exit}\n${out}\n${err}")
  endif()
  set(expected_file "${EXPECTED_DIR}/${SCENARIO}.${name}.txt")
  if(UPDATE)
    file(WRITE "${expected_file}" "${out}")
    return()
  endif()
  if(NOT EXISTS "${expected_file}")
    message(FATAL_ERROR "${SCENARIO}/${name}: missing ${expected_file}")
  endif()
  file(READ "${expected_file}" want)
  if(NOT out STREQUAL want)
    file(WRITE "${WORK_DIR}/${name}.actual.txt" "${out}")
    message(FATAL_ERROR "${SCENARIO}/${name}: output differs from "
                        "${expected_file}\n--- actual ---\n${out}")
  endif()
endfunction()

step(gen 0 gen ${gen_args} --out fabric.topo)
step(map 0 map --in fabric.topo --out fabric.map)
step(routes 0 routes --in fabric.map --sample 20)
step(lint 0 lint --in fabric.map --json)
step(sabotage 2 lint --in fabric.map --sabotage-turn)
step(routes-optimize 0 routes --in fabric.map --sample 20 --engine dfs
     --optimize)
step(lint-optimize 0 lint --in fabric.map --json --engine dfs --optimize)
# (\; keeps the churn spec's clause separator out of CMake's list splitting.)
step(serve 0 serve --in fabric.topo --ticks 20 --interval-ms 500
     --churn "rolling(start=200,every=20s,down=8s,count=1)\;hostchurn(start=400,every=20s,down=8s,count=1)"
     --snapshot-out fabric.snap)
step(query 0 query --snapshot fabric.snap --sample 5)
step(serve-dfs 0 serve --in fabric.topo --ticks 20 --interval-ms 500
     --churn "rolling(start=200,every=20s,down=8s,count=1)\;hostchurn(start=400,every=20s,down=8s,count=1)"
     --engine dfs --optimize --snapshot-out fabric-dfs.snap)
step(query-dfs 0 query --snapshot fabric-dfs.snap --sample 5)
# An unknown root is refused before bootstrap: no probe is sent.
step(serve-unknown-root 1 serve --in fabric.topo --root no-such-switch
     --ticks 1)
