# Negative self-test: run with the stored trace file corrupted, the
# benchmark must exit non-zero and count the failure in its result line.
#   cmake -DBENCH=<leakydsp_bench> -P expect_failure.cmake
execute_process(
  COMMAND ${BENCH} --workload record_replay --smoke --seed 7 --trace 0
          --corrupt-replay
  OUTPUT_VARIABLE out
  RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR "a corrupted trace file went unreported (exit 0)")
endif()
if(NOT out MATCHES "\"failed\": [1-9]")
  message(FATAL_ERROR "the result line reports no failed check:\n${out}")
endif()
