# Runs every shipped scenario (scenarios/*.scn) and the built-in demo through
# scenario_runner and compares each stdout byte for byte with its checked-in
# golden under tests/golden/. Scripts named cluster_*.scn run with
# --cluster=2. Run it from the source directory: the first output line
# echoes the script path, so the paths must be the relative ones the goldens
# were made with. Driven by the `scenario_goldens` ctest entry; also
# runnable directly:
#   cmake -DRUNNER=build/examples/scenario_runner -DOUT_DIR=build/goldens \
#         -P cmake/scenario_goldens.cmake
# A golden is the runner's stdout, e.g.
#   build/examples/scenario_runner scenarios/growth_plan.scn \
#     > tests/golden/growth_plan.out
foreach(var RUNNER OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "scenario_goldens.cmake requires -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
file(GLOB scripts RELATIVE ${CMAKE_CURRENT_SOURCE_DIR} scenarios/*.scn)
list(SORT scripts)
set(runs demo)
foreach(script ${scripts})
  get_filename_component(name ${script} NAME_WE)
  list(APPEND runs ${name})
  set(args_${name} ${script})
  if(name MATCHES "^cluster_")
    set(args_${name} --cluster=2 ${script})
  endif()
endforeach()

set(failed "")
foreach(name ${runs})
  execute_process(
    COMMAND ${RUNNER} ${args_${name}}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE exit_code)
  file(WRITE ${OUT_DIR}/${name}.out "${actual}")
  set(golden tests/golden/${name}.out)
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "${name}: scenario_runner exited with ${exit_code}")
    list(APPEND failed ${name})
  elseif(NOT EXISTS ${CMAKE_CURRENT_SOURCE_DIR}/${golden})
    message(SEND_ERROR "${name}: no golden ${golden}")
    list(APPEND failed ${name})
  else()
    file(READ ${golden} expected)
    if(NOT actual STREQUAL expected)
      message(SEND_ERROR
        "${name}: output differs from ${golden}; see ${OUT_DIR}/${name}.out")
      list(APPEND failed ${name})
    endif()
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "scenario goldens failed: ${failed}")
endif()
list(LENGTH runs count)
message(STATUS "${count} scenario outputs match their goldens")
