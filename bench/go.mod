module env2vec/bench

go 1.22

require env2vec v0.0.0

replace env2vec => ../
