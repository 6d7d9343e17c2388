# Drives the sanmap binary as a process and diffs every step's stdout and
# stderr against a recorded expectation. -DSTEPS picks the step group:
#
#   bringup   one operator bring-up of a generated fabric:
#               sanmap gen ... | info | map | routes --sample 20 | lint --json
#               sanmap routes --root <the map's last switch> --seed 7
#               sanmap lint --root no-such-switch  (exit 1, "... in the
#                 mapper's component")
#               sanmap map --algorithm identity|myricom|randomized, --previous
#               sanmap lint --sabotage-turn   (must exit 2 naming an SL101 hop)
#               sanmap lint --map-only, --hop-limit 3
#               sanmap routes / lint --engine dfs --optimize  (the optimizer)
#               sanmap dot
#               sanmap serve --churn ... --snapshot-out  (a switch and a host
#                 go down and come back inside the tick window; the table
#                 shows the outage repair and then the repair after the
#                 revival), then query --snapshot ... --sample 5
#               sanmap serve / query --engine dfs --optimize  (the same churn;
#                 decode of an optimized DFS-engine snapshot)
#               sanmap serve --ticks 3  (no timeline: the quiescent fabric),
#                 and with --seed 5 --snapshot-out, then query --sample 5
#               sanmap serve --root NAME  (refused as an unknown flag: serve
#                 maps first, and a switch has no name before it is mapped)
#   labeled   sanmap gen ... | map --algorithm labeled
#   federate  sanmap gen ... | map --federate auto:2 | serve --federate auto:2,
#               also with --engine dfs --optimize --seed 3
#   cases     checked-in .sancase inputs: sanmap serve of
#               FIXTURE_DIR/torus-link-down.sancase, whose fault line takes a
#               wire down at 600 ms, then query; sanmap info of
#               tests/corpus/fig4-subcluster-c.sancase, whose mapper line
#               (C.h0) is the default over C.util; sanmap map of
#               tests/corpus/circuit-star.sancase, whose collision line
#               (circuit) is the default collision model, and an unknown
#               --collision is refused
#   islands   sanmap info / map / routes / lint / serve of
#               FIXTURE_DIR/islands.topo: a mesh, an isolated switch, an
#               isolated host and a switch-host pair; map, routes and serve
#               work on the first host's component; then query the snapshot
#   mesh-tail FIXTURE_DIR/mesh-tail.topo: a host-free 4x4 mesh behind a
#               switch-bridge, whose exploration reaches past the one-BFS
#               depth floor; sanmap info, and sanmap map (which then solves
#               the exact Q + D + 1) with the map on stdout, and sanmap
#               map --previous with a NOW map that lacks its mapper host
#
# Every step also fails when its output names a SANMAP_CHECK or a source
# file: a refusal must be typed text, not an internal assertion.
#
# Usage (ctest registers one run per scenario):
#   cmake -DSANMAP=path/to/sanmap -DSCENARIO=NAME -DSTEPS=bringup
#         "-DGEN_ARGS=--topology now" -DEXPECTED_DIR=tests/cli/expected
#         -DFIXTURE_DIR=tests/cli/fixtures -DWORK_DIR=scratch/dir
#         -P tests/cli/cli_scenario.cmake
#
# Re-record the expectations (only when a change deliberately alters CLI
# output) by adding -DUPDATE=1.
foreach(var SANMAP SCENARIO STEPS GEN_ARGS EXPECTED_DIR FIXTURE_DIR WORK_DIR)
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
  if(out MATCHES "SANMAP_CHECK|\\.cpp:")
    message(FATAL_ERROR "${SCENARIO}/${name}: sanmap ${ARGN} leaked an "
                        "internal check or a source path\n${out}")
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

if(STEPS STREQUAL "bringup")
  step(gen 0 gen ${gen_args} --out fabric.topo)
  step(info 0 info --in fabric.topo)
  step(map 0 map --in fabric.topo --out fabric.map)
  step(map-identity 0 map --in fabric.topo --algorithm identity)
  step(map-myricom 0 map --in fabric.topo --algorithm myricom)
  step(map-randomized 0 map --in fabric.topo --algorithm randomized)
  step(map-previous 0 map --in fabric.topo --previous fabric.map)
  step(routes 0 routes --in fabric.map --sample 20)
  # A named root: the map's last switch, which is not its natural root.
  file(STRINGS "${WORK_DIR}/fabric.map" map_switches REGEX "^switch ")
  list(GET map_switches -1 last_switch)
  string(REPLACE "switch " "" last_switch "${last_switch}")
  step(routes-root 0 routes --in fabric.map --root ${last_switch} --seed 7
       --sample 5)
  step(lint 0 lint --in fabric.map --json)
  step(lint-unknown-root 1 lint --in fabric.map --root no-such-switch)
  step(sabotage 2 lint --in fabric.map --sabotage-turn)
  step(lint-map-only 0 lint --in fabric.map --map-only)
  step(lint-hop-limit 1 lint --in fabric.map --hop-limit 3)
  step(routes-optimize 0 routes --in fabric.map --sample 20 --engine dfs
       --optimize)
  step(lint-optimize 0 lint --in fabric.map --json --engine dfs --optimize)
  step(dot 0 dot --in fabric.map)
  # (\; keeps the churn spec's clause separator out of CMake's list
  # splitting.)
  step(serve 0 serve --in fabric.topo --ticks 20 --interval-ms 500
       --churn "rolling(start=200,every=20s,down=8s,count=1)\;hostchurn(start=400,every=20s,down=8s,count=1)"
       --snapshot-out fabric.snap)
  step(query 0 query --snapshot fabric.snap --sample 5)
  step(serve-dfs 0 serve --in fabric.topo --ticks 20 --interval-ms 500
       --churn "rolling(start=200,every=20s,down=8s,count=1)\;hostchurn(start=400,every=20s,down=8s,count=1)"
       --engine dfs --optimize --snapshot-out fabric-dfs.snap)
  step(query-dfs 0 query --snapshot fabric-dfs.snap --sample 5)
  step(serve-plain 0 serve --in fabric.topo --ticks 3)
  step(serve-seed 0 serve --in fabric.topo --ticks 3 --seed 5
       --snapshot-out fabric-seed.snap)
  step(query-seed 0 query --snapshot fabric-seed.snap --sample 5)
  # serve maps before it routes, so it takes no root name: --root is
  # refused as an unknown flag, before any probe is sent.
  step(serve-unknown-root 1 serve --in fabric.topo --root no-such-switch
       --ticks 1)
elseif(STEPS STREQUAL "labeled")
  step(gen 0 gen ${gen_args} --out fabric.topo)
  step(map-labeled 0 map --in fabric.topo --algorithm labeled)
elseif(STEPS STREQUAL "federate")
  step(gen 0 gen ${gen_args} --out fabric.topo)
  step(map-federate 0 map --in fabric.topo --federate auto:2)
  step(serve-federate 0 serve --in fabric.topo --federate auto:2 --ticks 3)
  step(serve-federate-dfs 0 serve --in fabric.topo --federate auto:2 --ticks 3
       --engine dfs --optimize --seed 3)
elseif(STEPS STREQUAL "cases")
  file(COPY "${FIXTURE_DIR}/torus-link-down.sancase"
            "${FIXTURE_DIR}/../../corpus/fig4-subcluster-c.sancase"
            "${FIXTURE_DIR}/../../corpus/circuit-star.sancase"
       DESTINATION "${WORK_DIR}")
  step(serve-faults 0 serve --in torus-link-down.sancase --ticks 8
       --snapshot-out fabric.snap)
  step(query 0 query --snapshot fabric.snap --src h0 --dst h8 --sample 5)
  step(info-case-mapper 0 info --in fig4-subcluster-c.sancase)
  step(map-case-collision 0 map --in circuit-star.sancase)
  step(map-unknown-collision 1 map --in circuit-star.sancase --collision circut)
elseif(STEPS STREQUAL "islands")
  file(COPY "${FIXTURE_DIR}/islands.topo" DESTINATION "${WORK_DIR}")
  step(info 0 info --in islands.topo)
  step(map 0 map --in islands.topo --out -)
  step(routes 0 routes --in islands.topo --sample 5)
  step(lint 1 lint --in islands.topo)
  step(serve 0 serve --in islands.topo --ticks 2 --snapshot-out islands.snap)
  step(query 0 query --snapshot islands.snap --sample 5)
elseif(STEPS STREQUAL "mesh-tail")
  file(COPY "${FIXTURE_DIR}/mesh-tail.topo" DESTINATION "${WORK_DIR}")
  step(info 0 info --in mesh-tail.topo)
  step(map 0 map --in mesh-tail.topo --out -)
  # A previous map of another fabric, which lacks the mapper host: a typed
  # refusal, not an internal check.
  step(gen-now 0 gen --topology now --out now.map)
  step(map-previous-foreign 1 map --in mesh-tail.topo --previous now.map)
else()
  message(FATAL_ERROR "cli_scenario: unknown step group ${STEPS}")
endif()
