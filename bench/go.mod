module rawdb/bench

go 1.24

require rawdb v0.0.0

replace rawdb => ../
