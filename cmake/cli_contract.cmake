# Every bench, example and tool binary keeps the util::Cli contract:
# `--help` prints the valid options to stdout and exits 0, and an unknown
# option prints the error and the valid options to stderr and exits 2.
# Only the drivers that start the obs::Progress meter accept --progress;
# every other binary rejects it like any unknown option.
#   cmake "-DBINARIES=<bin>|<bin>|..." -P cli_contract.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
set(progress_binaries table1_traces campaign_scaling)
list(LENGTH binaries count)
if(count EQUAL 0)
  message(FATAL_ERROR "no binaries to check")
endif()

set(failures "")
foreach(bin IN LISTS binaries)
  get_filename_component(name "${bin}" NAME)
  execute_process(COMMAND "${bin}" --help
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code TIMEOUT 60)
  if(NOT code STREQUAL "0" OR NOT out MATCHES "valid options:")
    list(APPEND failures "${name} --help: exit ${code}\n${out}${err}")
  endif()
  execute_process(COMMAND "${bin}" --no-such-option
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code TIMEOUT 60)
  if(NOT code STREQUAL "2" OR
     NOT err MATCHES "unknown option --no-such-option" OR
     NOT err MATCHES "valid options:")
    list(APPEND failures "${name} --no-such-option: exit ${code}\n${err}")
  endif()
  # The trailing unknown option keeps a binary that accepts --progress
  # from running: either way the parse exits 2, and the error names the
  # first option the binary rejected.
  list(FIND progress_binaries "${name}" progress_index)
  if(progress_index EQUAL -1)
    set(rejected "--progress")
  else()
    set(rejected "--no-such-option")
  endif()
  execute_process(COMMAND "${bin}" --progress --no-such-option
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code TIMEOUT 60)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "unknown option ${rejected}")
    list(APPEND failures "${name} --progress: exit ${code}\n${err}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "CLI contract broken:\n${report}")
endif()
message(STATUS "${count} binaries keep the CLI contract")
