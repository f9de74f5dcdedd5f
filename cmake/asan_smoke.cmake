# Configures, builds and runs the serving-path tests under AddressSanitizer
# in a nested build tree. Driven by the `asan_smoke` ctest entry so the
# streams' pointers into store rows (re-fetched when the store's layout key
# moves; a stale one reads freed memory), the migration executor's indexed
# pending set (slot positions into a vector that compacts; unjournaled and
# journaled rounds), the server's one-pass stream compaction (moves
# streams and their row pointers), the disk table indexed by physical id,
# the scenario interpreter on both targets (the run-owned checkpoint
# manager and its detach on every exit path, the traffic engine's stream
# views into shard stream vectors) and the one snapshot decoder (torn,
# corrupt and out-of-range restart documents fed to `DecodeServerSnapshot`
# and `CmServer::LoadFromState` by `snapshot_test`), the journal-recovery
# step both restarts share, run over a store rebuilt from a checkpoint
# (`checkpoint_restart_test`), and replication (copy
# rows at `r*B + i`, the scheduler's copy fallback and the executor's
# failed-disk sources, driven by `replicated_server_test` and the
# replicated-server fuzzers in `fuzz_test`) are memory-checked as part of
# tier-1; also runnable directly:
#   cmake -DSOURCE_DIR=. -DBINARY_DIR=build/asan-smoke -P cmake/asan_smoke.cmake
foreach(var SOURCE_DIR BINARY_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "asan_smoke.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DSCADDAR_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug
  RESULT_VARIABLE configure_result)
if(configure_result)
  message(FATAL_ERROR "ASan configure failed: ${configure_result}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR}
          --target stream_row_test serving_equivalence_test
                   fault_injection_test traffic_engine_test cluster_test
                   storage_backend_test governor_property_test
                   migration_test block_io_recovery_test server_test
                   multirate_test vcr_test disk_array_test block_store_test
                   scenario_test cluster_equivalence_test snapshot_test
                   replicated_server_test fuzz_test checkpoint_restart_test
  RESULT_VARIABLE build_result)
if(build_result)
  message(FATAL_ERROR "ASan build failed: ${build_result}")
endif()

execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${BINARY_DIR}
          -R "^stream_row_test$|serving_equivalence_test|^fault_injection_test$|traffic_engine_test|^cluster_test$|storage_backend_test|governor_property_test|^migration_test$|^block_io_recovery_test$|^server_test$|^multirate_test$|^vcr_test$|^disk_array_test$|^block_store_test$|^scenario_test$|^cluster_equivalence_test$|^snapshot_test$|^replicated_server_test$|^fuzz_test$|^checkpoint_restart_test$"
          --output-on-failure
  RESULT_VARIABLE test_result)
if(test_result)
  message(FATAL_ERROR "ASan smoke tests failed: ${test_result}")
endif()
